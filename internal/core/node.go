package core

import (
	"sync"
	"sync/atomic"

	"skipqueue/internal/vclock"
)

// link is one level of a node: the forward pointer for that level and the
// lock that protects splicing at that pointer (the paper's lock(node, level)).
type link[K ordered, V any] struct {
	mu   sync.Mutex
	next atomic.Pointer[node[K, V]]
}

// node is a SkipQueue record (Figure 1 of the paper): a key, a value, a
// tower of forward pointers with one lock per level, a whole-node lock that
// guards against deletion racing with an in-progress insertion, the deleted
// flag targeted by DeleteMin's SWAP, and the completion timestamp used by
// the strict ordering mechanism.
//
// Nodes are ordered by (key, seq). The map API inserts with seq 0, so it
// orders by key alone; a multiset gives each element its own seq, and equal
// keys then leave in seq order. Comparing an inline pair keeps a search
// step on the node's own cache lines, where a composite string key would
// add a load of its bytes.
type node[K ordered, V any] struct {
	key K
	seq uint64

	// value is stored behind an atomic pointer so that the update-in-place
	// path of Insert and the value read in DeleteMin are race-free. A nil
	// pointer means the value has been consumed by a DeleteMin (see
	// Queue.Insert for the update/delete arbitration protocol).
	value atomic.Pointer[V]

	// deleted is the logical-deletion mark: zero while live, and the
	// winning DeleteMin's claim ticket once claimed. The paper marks with a
	// plain SWAP of a boolean; carrying a clock ticket drawn just before
	// the winning atomic costs the same arbitration but leaves evidence of
	// the SWAP serialization order that the Section 4.2 proof relies on —
	// evidence the Definition 1 checker (internal/lincheck) verifies
	// against. Tickets read later by a scanning DeleteMin are always
	// smaller than that scanner's own subsequent ticket, because tickets
	// are drawn from the same monotone clock after the observation.
	deleted atomic.Int64

	// timeStamp is vclock.MaxTime while the insertion is incomplete
	// (Figure 10 line 19) and is set to the clock value once the node is
	// fully linked (Figure 10 line 29).
	timeStamp atomic.Int64

	// nodeMu is the whole-node lock: held by Insert while the tower is being
	// linked and acquired by the physical deletion before unlinking, so a
	// node is never unlinked mid-insertion (Figure 10 line 20 / Figure 11
	// line 27).
	nodeMu sync.Mutex

	// links[i] is level i (0-based; level 0 is the full linked list).
	links []link[K, V]
}

// Towers of up to 8 levels (all but 1 in 128 nodes at p = 0.5) are
// allocated in one object with their node, rounded up to a size class of
// 1, 2, 4 or 8 links. A search step then reads the node and its links from
// neighbouring memory, and the collector tracks one object per node, not
// two. Taller towers get their own slice.
type (
	tower1[K ordered, V any] struct {
		n node[K, V]
		l [1]link[K, V]
	}
	tower2[K ordered, V any] struct {
		n node[K, V]
		l [2]link[K, V]
	}
	tower4[K ordered, V any] struct {
		n node[K, V]
		l [4]link[K, V]
	}
	tower8[K ordered, V any] struct {
		n node[K, V]
		l [8]link[K, V]
	}
)

// newNode allocates a node with the given tower height. The timestamp starts
// at MaxTime so concurrent strict DeleteMins ignore the node until the
// insertion completes.
func newNode[K ordered, V any](key K, seq uint64, value *V, level int) *node[K, V] {
	var n *node[K, V]
	switch {
	case level <= 1:
		t := new(tower1[K, V])
		t.n.links = t.l[:level]
		n = &t.n
	case level <= 2:
		t := new(tower2[K, V])
		t.n.links = t.l[:level]
		n = &t.n
	case level <= 4:
		t := new(tower4[K, V])
		t.n.links = t.l[:level]
		n = &t.n
	case level <= 8:
		t := new(tower8[K, V])
		t.n.links = t.l[:level]
		n = &t.n
	default:
		n = &node[K, V]{links: make([]link[K, V], level)}
	}
	n.key, n.seq = key, seq
	n.value.Store(value)
	n.timeStamp.Store(vclock.MaxTime)
	return n
}

// before reports whether n sorts strictly before (key, seq).
func (n *node[K, V]) before(key K, seq uint64) bool {
	return n.key < key || n.key == key && n.seq < seq
}

// level returns the tower height of the node.
func (n *node[K, V]) level() int { return len(n.links) }

// loadNext returns the level-i successor.
func (n *node[K, V]) loadNext(i int) *node[K, V] { return n.links[i].next.Load() }

// storeNext sets the level-i successor. Callers must hold n.links[i].mu
// except during single-threaded construction.
func (n *node[K, V]) storeNext(i int, to *node[K, V]) { n.links[i].next.Store(to) }
