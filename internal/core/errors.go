package core

import "errors"

// Structural invariant violations reported by checkLevels. These indicate a
// bug in the queue itself, never user error, and exist so tests can assert
// which invariant broke.
var (
	errOutOfOrder   = errors.New("core: level list out of key order")
	errLevelOrphan  = errors.New("core: node present on upper level but missing from bottom level")
	errLevelHeight  = errors.New("core: node linked on a level above its tower height")
	errLevelMissing = errors.New("core: node missing from a level within its tower height")
)
