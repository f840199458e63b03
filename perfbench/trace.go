package main

import (
	"bufio"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// The traced run wraps each layer from outside (decorate.go): timing
// decorators around the backends handed to wal.OpenQueue, lease.New and
// server.New, and a counting net.Listener under the server. Nothing inside
// the program is instrumented, so a span covers a call into a layer, not
// that layer's internals.

type layer uint8

const (
	layerCore layer = iota
	layerWAL
	layerLease
	numLayers
)

var layerNames = [numLayers]string{"core", "wal", "lease"}

type opName uint8

const (
	opPush opName = iota
	opPop
	opLeaseMin
	opAck
	opRequeue
	opRewrite
	opCommit
	opSync
	numOps
)

var opNames = [numOps]string{"push", "pop", "lease_min", "ack", "requeue", "rewrite", "commit", "sync"}

// childOf names the decorated call a call of (l, op) makes one level down,
// if any: each of these layers hands exactly one call to the layer below.
func childOf(l layer, op opName) (layer, opName, bool) {
	switch {
	case l == layerLease && (op == opPush || op == opPop):
		return layerWAL, op, true
	case l == layerWAL && (op == opPush || op == opRequeue):
		return layerCore, opPush, true
	case l == layerWAL && (op == opPop || op == opLeaseMin):
		return layerCore, opPop, true
	}
	return 0, 0, false
}

// callStat counts every call of one (layer, op) and the wall time spent in
// it; unlike the span log it is not sampled.
type callStat struct {
	calls, ns atomic.Uint64
}

// span is one logged decorated call. parent is the index of the enclosing
// span, or -1 for a root.
type span struct {
	layer      layer
	op         opName
	unlinked   bool  // a child call was made but could not be matched
	start, end int64 // ns since the tracer's epoch
	elem       uint64
	parent     int32
}

// tracer owns the per-layer call counters and the span log.
//
// The log is sampled to bound its memory: one root call in sampleEvery is
// logged together with the calls it made into the layers below. A call
// that another decorated call encloses (nested, fixed per stack: the core
// under the WAL, the WAL's push under the lease table) is never a root.
// It leaves its interval in its layer's ring, keyed by the element it
// carried, and a logged parent picks up the entry for its own element
// whose interval lies inside its own. These chains are synchronous, so
// that entry is the call the parent made on its own goroutine; matching
// by element avoids reading goroutine IDs, which costs a stack walk.
type tracer struct {
	epoch       time.Time
	sampleEvery uint64
	maxSpans    int
	nested      [numLayers][numOps]bool

	on    atomic.Bool // calls are timed only inside traced slots
	tick  atomic.Uint64
	stats [numLayers][numOps]callStat
	rings [numLayers]*ring

	mu       sync.Mutex
	spans    []span
	dropped  uint64
	unlinked uint64
}

func newTracer(sampleEvery uint64, maxSpans int) *tracer {
	t := &tracer{epoch: time.Now(), sampleEvery: sampleEvery, maxSpans: maxSpans, spans: make([]span, 0, maxSpans)}
	for l := range t.rings {
		t.rings[l] = new(ring)
	}
	return t
}

// nest marks (l, op) as always called from inside another decorated call.
func (t *tracer) nest(l layer, ops ...opName) {
	for _, op := range ops {
		t.nested[l][op] = true
	}
}

func (t *tracer) begin() time.Time {
	if !t.on.Load() {
		return time.Time{}
	}
	return time.Now()
}

// end closes a call begun at start; value is the element it carried, in
// or out, or nil.
func (t *tracer) end(l layer, op opName, start time.Time, value []byte) {
	if start.IsZero() {
		return
	}
	now := time.Now()
	st := &t.stats[l][op]
	st.calls.Add(1)
	st.ns.Add(uint64(now.Sub(start)))
	s, e := int64(start.Sub(t.epoch)), int64(now.Sub(t.epoch))
	elem, _, hasElem := decodeValue(value)
	if t.nested[l][op] {
		if hasElem {
			t.rings[l].put(elem, op, s, e)
		}
		return
	}
	if t.tick.Add(1)%t.sampleEvery != 0 {
		return
	}
	t.mu.Lock()
	t.record(l, op, s, e, elem, hasElem, -1)
	t.mu.Unlock()
}

// record logs one span and, recursively, the child call it made.
func (t *tracer) record(l layer, op opName, s, e int64, elem uint64, hasElem bool, parent int32) {
	if len(t.spans) == t.maxSpans {
		t.dropped++
		return
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{layer: l, op: op, start: s, end: e, elem: elem, parent: parent})
	cl, cop, ok := childOf(l, op)
	if !ok || !t.nested[cl][cop] {
		return
	}
	cs, ce, found := t.rings[cl].get(elem, cop, s, e)
	if !hasElem || !found {
		// An empty pop carries no element to match by; a ring slot may
		// have been overwritten. Either way self time is unknown.
		t.spans[idx].unlinked = true
		t.unlinked++
		return
	}
	t.record(cl, cop, cs, ce, elem, true, idx)
}

// selfTimes returns each span's duration minus the time its child spans
// cover. A span's children run inside it, one after another.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// selfNs is the self time layer l spent in traced slots: for each op, its
// exact call count times the mean self time of its logged, linked spans.
// An op with calls but no logged span counts its mean duration, which
// overstates self time only if it made child calls.
func (t *tracer) selfNs(l layer, skip ...opName) float64 {
	self := t.selfTimes()
	var sum [numOps]float64
	var n [numOps]int
	for i, s := range t.spans {
		if s.layer == l && !s.unlinked {
			sum[s.op] += float64(self[i])
			n[s.op]++
		}
	}
	var total float64
	for op := opName(0); op < numOps; op++ {
		if contains(skip, op) {
			continue
		}
		st := &t.stats[l][op]
		calls := float64(st.calls.Load())
		if n[op] > 0 {
			total += calls * sum[op] / float64(n[op])
		} else {
			total += float64(st.ns.Load())
		}
	}
	return total
}

func contains(ops []opName, op opName) bool {
	for _, o := range ops {
		if o == op {
			return true
		}
	}
	return false
}

// busyNs sums the exact wall time in all calls of a layer.
func (t *tracer) busyNs(l layer) uint64 {
	var ns uint64
	for op := range t.stats[l] {
		ns += t.stats[l][op].ns.Load()
	}
	return ns
}

// meanNs is the mean duration of the calls of one (layer, op).
func (t *tracer) meanNs(l layer, op opName) float64 {
	st := &t.stats[l][op]
	return ratio(st.ns.Load(), st.calls.Load())
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// writeLog writes the span log as CSV, one span a line, with its self time.
func (t *tracer) writeLog(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "# 1 in %d root calls sampled; %d roots dropped at the %d-span cap; %d spans with an unmatched child\n",
		t.sampleEvery, t.dropped, t.maxSpans, t.unlinked)
	fmt.Fprintln(w, "index,layer,op,start_ns,end_ns,element,parent,self_ns,linked")
	self := t.selfTimes()
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%s,%s,%d,%d,%#x,%d,%d,%t\n", i, layerNames[s.layer], opNames[s.op], s.start, s.end, s.elem, s.parent, self[i], !s.unlinked)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ring remembers the latest interval of nested calls per element hash so a
// parent can claim its child. A slot is a seqlock: a writer that finds it
// busy skips, and a reader that sees it change misses; both leave the
// parent unlinked rather than wrong.
const ringSize = 1 << 12

type ringSlot struct {
	seq        atomic.Uint64
	elem       atomic.Uint64
	op         atomic.Uint32
	start, end atomic.Int64
}

type ring struct{ slots [ringSize]ringSlot }

func (r *ring) put(elem uint64, op opName, s, e int64) {
	sl := &r.slots[splitmix(elem)&(ringSize-1)]
	v := sl.seq.Load()
	if v&1 == 1 || !sl.seq.CompareAndSwap(v, v+1) {
		return
	}
	sl.elem.Store(elem)
	sl.op.Store(uint32(op))
	sl.start.Store(s)
	sl.end.Store(e)
	sl.seq.Store(v + 2)
}

// get returns the interval of the call of op on elem, if it lies in [lo, hi].
func (r *ring) get(elem uint64, op opName, lo, hi int64) (int64, int64, bool) {
	sl := &r.slots[splitmix(elem)&(ringSize-1)]
	v := sl.seq.Load()
	if v&1 == 1 {
		return 0, 0, false
	}
	el, o, s, e := sl.elem.Load(), opName(sl.op.Load()), sl.start.Load(), sl.end.Load()
	if sl.seq.Load() != v || el != elem || o != op || s < lo || e > hi {
		return 0, 0, false
	}
	return s, e, true
}
