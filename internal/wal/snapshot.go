package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// File naming and the snapshot format.
//
// Segment files are `wal-<first LSN>.seg`, snapshot files
// `snap-<cut LSN>.snap`; both carry the LSN zero-padded to 20 digits so
// lexicographic order is LSN order. A segment starts with a 16-byte header
// (magic + first LSN) and then holds record frames (record.go) back to
// back; a record's LSN is the header LSN plus its ordinal.
//
// A snapshot is the live multiset at cut C — every element whose push has
// LSN ≤ C and whose pop (if any) has LSN > C:
//
//	8  bytes  magic "SQSNAP1\n"
//	uint64    cut LSN
//	uint64    element count
//	count ×   { uint64 id | int64 priority | uint32 vlen | value }
//	uint32    CRC32-C of everything after the magic
//
// Snapshots are written to a temp file, fsynced, and renamed into place,
// so a crash mid-write never produces a visible half-snapshot; the
// directory fsync after the rename makes the rename itself durable before
// any segment is deleted.

var (
	segMagic  = []byte("SQWAL1\n\x00")
	snapMagic = []byte("SQSNAP1\n")
)

const segHdrSize = 8 + 8

func segmentName(start uint64) string { return fmt.Sprintf("wal-%020d.seg", start) }
func snapshotName(cut uint64) string  { return fmt.Sprintf("snap-%020d.snap", cut) }

// parseLSN extracts the LSN out of a segment or snapshot file name;
// ok is false for foreign files.
func parseLSN(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// segmentHeader renders the 16-byte segment header.
func segmentHeader(start uint64) []byte {
	hdr := make([]byte, 0, segHdrSize)
	hdr = append(hdr, segMagic...)
	return binary.BigEndian.AppendUint64(hdr, start)
}

// parseSegmentHeader validates a segment prefix and returns its first LSN.
func parseSegmentHeader(data []byte) (uint64, error) {
	if len(data) < segHdrSize || string(data[:8]) != string(segMagic) {
		return 0, fmt.Errorf("%w: segment header", ErrTornRecord)
	}
	return binary.BigEndian.Uint64(data[8:16]), nil
}

// Item is one live element of the durable queue: identity, priority, and
// the raw payload (without the internal id framing Queue adds for the
// in-memory backend).
type Item struct {
	ID       uint64
	Priority int64
	Value    []byte
}

// writeSnapshot atomically writes the live multiset at cut into dir and
// returns the number of bytes written.
func writeSnapshot(dir string, cut uint64, items []Item) (int64, error) {
	buf := make([]byte, 0, 64+len(items)*32)
	buf = append(buf, snapMagic...)
	buf = binary.BigEndian.AppendUint64(buf, cut)
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(items)))
	for _, it := range items {
		buf = binary.BigEndian.AppendUint64(buf, it.ID)
		buf = binary.BigEndian.AppendUint64(buf, uint64(it.Priority))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(it.Value)))
		buf = append(buf, it.Value...)
	}
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf[len(snapMagic):], castagnoli))

	tmp := filepath.Join(dir, snapshotName(cut)+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := f.Write(buf); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return 0, err
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapshotName(cut))); err != nil {
		os.Remove(tmp)
		return 0, err
	}
	syncDir(dir)
	return int64(len(buf)), nil
}

// readSnapshot loads and validates one snapshot file, returning its cut
// LSN and items. Any malformed byte fails the whole file — a snapshot is
// all-or-nothing, unlike the tail-tolerant segment replay.
func readSnapshot(path string) (cut uint64, items []Item, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	if len(data) < len(snapMagic)+8+8+4 || string(data[:len(snapMagic)]) != string(snapMagic) {
		return 0, nil, fmt.Errorf("wal: %s: not a snapshot", filepath.Base(path))
	}
	body, tail := data[len(snapMagic):len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(tail) {
		return 0, nil, fmt.Errorf("wal: %s: snapshot CRC mismatch", filepath.Base(path))
	}
	cut = binary.BigEndian.Uint64(body)
	count := binary.BigEndian.Uint64(body[8:])
	body = body[16:]
	items = make([]Item, 0, count)
	for i := uint64(0); i < count; i++ {
		if len(body) < 20 {
			return 0, nil, fmt.Errorf("wal: %s: truncated snapshot entry", filepath.Base(path))
		}
		it := Item{
			ID:       binary.BigEndian.Uint64(body),
			Priority: int64(binary.BigEndian.Uint64(body[8:])),
		}
		vlen := int(binary.BigEndian.Uint32(body[16:]))
		body = body[20:]
		if vlen < 0 || len(body) < vlen {
			return 0, nil, fmt.Errorf("wal: %s: truncated snapshot value", filepath.Base(path))
		}
		it.Value = append([]byte(nil), body[:vlen]...)
		body = body[vlen:]
		items = append(items, it)
	}
	if len(body) != 0 {
		return 0, nil, fmt.Errorf("wal: %s: %d trailing snapshot bytes", filepath.Base(path), len(body))
	}
	return cut, items, nil
}

// listDir enumerates the segments (by ascending first LSN) and snapshots
// (by ascending cut) present in dir.
func listDir(dir string) (segs []segment, snaps []string, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if start, ok := parseLSN(name, "wal-", ".seg"); ok {
			segs = append(segs, segment{start: start, path: filepath.Join(dir, name)})
		} else if _, ok := parseLSN(name, "snap-", ".snap"); ok {
			snaps = append(snaps, filepath.Join(dir, name))
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].start < segs[j].start })
	sort.Strings(snaps)
	return segs, snaps, nil
}

// removeSnapshotTemps deletes the temp files of snapshots a crash
// interrupted before their rename. Nothing reads a temp file, and recovery
// runs before this process can start a snapshot of its own.
func removeSnapshotTemps(dir string) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if _, ok := parseLSN(e.Name(), "snap-", ".snap.tmp"); ok && !e.IsDir() {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// dropSnapshotsBefore removes all but the newest snapshot file. Older
// snapshots are redundant the moment a newer one is durable, but the
// deletion is deliberately last — a crash between rename and removal just
// leaves an extra file for the next recovery to skip.
func dropSnapshotsBefore(snaps []string) {
	for i := 0; i+1 < len(snaps); i++ {
		os.Remove(snaps[i])
	}
}
