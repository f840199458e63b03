package main

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Element identity. Every inserted value is 16 bytes: the element ID and
// the priority it was inserted with, both big-endian. An ID names the
// stream that issued it (a caller, or the prefill) and its position in
// that stream, so the ledger can size its state per stream without a map.
const (
	valueSize = 16
	seqBits   = 32
	seqMask   = 1<<seqBits - 1
)

func elementID(stream int, seq uint64) uint64 { return uint64(stream)<<seqBits | seq }

func encodeValue(id uint64, prio int64) []byte {
	v := make([]byte, valueSize)
	binary.BigEndian.PutUint64(v, id)
	binary.BigEndian.PutUint64(v[8:], uint64(prio))
	return v
}

// decodeValue reads the benchmark's 16-byte element from the tail of a
// value. Layers below the client prefix their own headers (the WAL's id,
// the lease table's delivery header), so a value drained straight from
// the structure carries them in front.
func decodeValue(v []byte) (id uint64, prio int64, ok bool) {
	if len(v) < valueSize {
		return 0, 0, false
	}
	v = v[len(v)-valueSize:]
	return binary.BigEndian.Uint64(v), int64(binary.BigEndian.Uint64(v[8:])), true
}

// bitset is a lazily allocated, concurrently settable bit array indexed by
// a stream sequence number, which issue keeps below maxPerStream.
const (
	chunkWords = 1 << 10
	chunkBits  = chunkWords * 64
	maxChunks  = 1 << 10
	// maxPerStream bounds one stream's IDs; --seconds is capped so that
	// no caller can issue more.
	maxPerStream = maxChunks * chunkBits
)

type bitset struct {
	chunks [maxChunks]atomic.Pointer[[chunkWords]atomic.Uint64]
}

func (b *bitset) word(seq uint64) *atomic.Uint64 {
	ci := seq / chunkBits
	p := b.chunks[ci].Load()
	if p == nil {
		fresh := new([chunkWords]atomic.Uint64)
		if !b.chunks[ci].CompareAndSwap(nil, fresh) {
			fresh = b.chunks[ci].Load()
		}
		p = fresh
	}
	return &p[seq%chunkBits/64]
}

// set sets the bit and reports whether it was already set.
func (b *bitset) set(seq uint64) (was bool) {
	w := b.word(seq)
	bit := uint64(1) << (seq % 64)
	for {
		old := w.Load()
		if old&bit != 0 {
			return true
		}
		if w.CompareAndSwap(old, old|bit) {
			return false
		}
	}
}

func (b *bitset) get(seq uint64) bool {
	p := b.chunks[seq/chunkBits].Load()
	return p != nil && p[seq%chunkBits/64].Load()&(1<<(seq%64)) != 0
}

// stream is one issuer's share of the ledger. issued is written only by
// the owning goroutine; the other fields are set from any goroutine.
type stream struct {
	issued    atomic.Uint64
	seen      bitset // delivered, acked or drained
	abandoned bitset // leased and deliberately never acked
	uncertain []uint64
}

// ledger is the exactly-once check. Every issued ID must end up seen
// exactly once: delivered (or acked) during the run, or found in the
// final drain. Seeing an ID twice is a duplicate; seeing one that was
// never issued is a phantom; an issued ID never seen is a loss. The
// delivered priority must match the one the ID was inserted with.
type ledger struct {
	streams    []stream
	dups       atomic.Uint64
	phantoms   atomic.Uint64
	corrupt    atomic.Uint64
	firstError atomic.Pointer[string]
}

func newLedger(nStreams int) *ledger { return &ledger{streams: make([]stream, nStreams)} }

// issue hands out the next ID of a stream; only the stream's owner calls it.
func (l *ledger) issue(s int) uint64 {
	st := &l.streams[s]
	seq := st.issued.Load()
	if seq >= maxPerStream {
		panic("perfbench: stream overflow")
	}
	st.issued.Store(seq + 1)
	return elementID(s, seq)
}

// markUncertain records an insert that returned an error: the element may
// or may not be in the queue, so it may be seen once or not at all.
func (l *ledger) markUncertain(id uint64) {
	st := &l.streams[id>>seqBits]
	st.uncertain = append(st.uncertain, id&seqMask)
}

func (l *ledger) lookup(id uint64) (*stream, uint64, bool) {
	s, seq := id>>seqBits, id&seqMask
	if s >= uint64(len(l.streams)) || seq >= l.streams[s].issued.Load() {
		return nil, 0, false
	}
	return &l.streams[s], seq, true
}

func (l *ledger) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	l.firstError.CompareAndSwap(nil, &msg)
}

// see records one delivery, ack or drained element.
func (l *ledger) see(value []byte, prio int64) {
	id, vprio, ok := decodeValue(value)
	if !ok {
		l.corrupt.Add(1)
		l.fail("value of %d bytes", len(value))
		return
	}
	st, seq, ok := l.lookup(id)
	if !ok {
		l.phantoms.Add(1)
		l.fail("phantom element %#x", id)
		return
	}
	if vprio != prio {
		l.corrupt.Add(1)
		l.fail("element %#x delivered at priority %d, inserted at %d", id, prio, vprio)
	}
	if st.seen.set(seq) {
		l.dups.Add(1)
		l.fail("element %#x seen twice", id)
	}
}

// abandon records a lease that will not be acked.
func (l *ledger) abandon(value []byte) {
	id, _, _ := decodeValue(value)
	if st, seq, ok := l.lookup(id); ok {
		st.abandoned.set(seq)
	}
}

// wasAbandoned reports whether a leased element had been abandoned before,
// i.e. this grant is the expiry sweep's redelivery.
func (l *ledger) wasAbandoned(value []byte) bool {
	id, _, _ := decodeValue(value)
	st, seq, ok := l.lookup(id)
	return ok && st.abandoned.get(seq)
}

// unacked counts issued IDs not yet seen: the set a durable queue must
// still hold.
func (l *ledger) unacked() int {
	n := 0
	for i := range l.streams {
		st := &l.streams[i]
		for seq := uint64(0); seq < st.issued.Load(); seq++ {
			if !st.seen.get(seq) {
				n++
			}
		}
	}
	return n
}

// verify runs once the queue is drained and quiescent.
func (l *ledger) verify() error {
	var lost, issued uint64
	for i := range l.streams {
		st := &l.streams[i]
		maybe := map[uint64]bool{}
		for _, seq := range st.uncertain {
			maybe[seq] = true
		}
		n := st.issued.Load()
		issued += n
		for seq := uint64(0); seq < n; seq++ {
			if !st.seen.get(seq) && !maybe[seq] {
				if lost == 0 {
					l.fail("element %#x lost", elementID(i, seq))
				}
				lost++
			}
		}
	}
	if lost+l.dups.Load()+l.phantoms.Load()+l.corrupt.Load() == 0 {
		return nil
	}
	return fmt.Errorf("exactly-once check over %d elements: %d lost, %d duplicated, %d phantom, %d corrupt; first: %s",
		issued, lost, l.dups.Load(), l.phantoms.Load(), l.corrupt.Load(), *l.firstError.Load())
}

// drainCheck verifies that a quiescent single-threaded drain of a strict
// queue comes out in non-decreasing priority.
type drainCheck struct {
	n, inversions int
	last          int64
	first         string
}

func (d *drainCheck) add(prio int64) {
	if d.n > 0 && prio < d.last {
		if d.inversions == 0 {
			d.first = fmt.Sprintf("priority %d after %d at position %d", prio, d.last, d.n)
		}
		d.inversions++
	}
	d.last = prio
	d.n++
}

func (d *drainCheck) err() error {
	if d.inversions == 0 {
		return nil
	}
	return fmt.Errorf("drain of %d elements out of order %d times; first: %s", d.n, d.inversions, d.first)
}
