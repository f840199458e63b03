package main

import (
	"math"
	"testing"
	"time"
)

func TestTracerSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer(1, 100)
	tr.nest(layerCore, opPush)
	tr.nest(layerWAL, opPush)
	v := encodeValue(elementID(0, 3), 9)
	elem, _, _ := decodeValue(v)
	tr.rings[layerCore].put(elem, opPush, 130, 160)
	tr.rings[layerWAL].put(elem, opPush, 120, 180)
	tr.record(layerLease, opPush, 100, 200, elem, true, -1)
	if len(tr.spans) != 3 {
		t.Fatalf("logged %d spans, want lease, wal and core", len(tr.spans))
	}
	self := tr.selfTimes()
	want := []int64{100 - 60, 60 - 30, 30}
	for i, s := range tr.spans {
		if self[i] != want[i] || (i > 0 && s.parent != int32(i-1)) {
			t.Fatalf("span %d (%s %s): self %d parent %d, want self %d parent %d",
				i, layerNames[s.layer], opNames[s.op], self[i], s.parent, want[i], i-1)
		}
	}
}

func TestTracerLeavesUnmatchedChildUnlinked(t *testing.T) {
	tr := newTracer(1, 100)
	tr.nest(layerCore, opPop)
	elem := elementID(0, 1)
	tr.rings[layerCore].put(elem, opPop, 50, 90) // outside the parent's interval
	tr.record(layerWAL, opLeaseMin, 100, 200, elem, true, -1)
	if len(tr.spans) != 1 || !tr.spans[0].unlinked {
		t.Fatalf("spans %+v: want one unlinked parent", tr.spans)
	}
}

func TestDecoratorsSampleRootsOnly(t *testing.T) {
	tr := newTracer(4, 100)
	c := &coreTimer{inner: newPQ(), t: tr}
	c.Push(1, encodeValue(1, 1)) // tracer off: not counted
	tr.on.Store(true)
	for i := range 16 {
		c.Push(int64(i), encodeValue(uint64(i), int64(i)))
	}
	if n := tr.stats[layerCore][opPush].calls.Load(); n != 16 {
		t.Fatalf("counted %d pushes, want 16", n)
	}
	if len(tr.spans) != 4 {
		t.Fatalf("logged %d spans, want 1 in 4 of 16", len(tr.spans))
	}
}

func TestFrameScanAcrossReads(t *testing.T) {
	// Three frames with bodies of 3, 0 and 5 bytes, cut at awkward places.
	stream := []byte{0, 0, 0, 3, 'a', 'b', 'c', 0, 0, 0, 0, 0, 0, 0, 5, 1, 2, 3, 4, 5}
	c := &countingConn{}
	var frames uint64
	for _, cut := range [][2]int{{0, 2}, {2, 5}, {5, 9}, {9, 14}, {14, 20}} {
		frames += c.scan(stream[cut[0]:cut[1]])
	}
	if frames != 3 {
		t.Fatalf("counted %d frames, want 3", frames)
	}
}

func TestHistoQuantile(t *testing.T) {
	var h histo
	for i := 1; i <= 100000; i++ {
		h.observe(time.Duration(i))
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantile(q), q*100000
		if math.Abs(got-want)/want > 0.04 {
			t.Errorf("q%.2f = %.0f, want about %.0f", q, got, want)
		}
	}
}
