package main

import (
	"reflect"
	"testing"
)

func ops(seed uint64, w *workload, stream, n int) []op {
	g := newGen(seed, w, stream)
	out := make([]op, n)
	for i := range out {
		out[i] = g.next()
	}
	return out
}

func TestGenSameSeedSameSequence(t *testing.T) {
	for _, w := range workloads {
		for _, c := range []int{0, 1, w.callers - 1} {
			a, b := ops(42, w, c, 5000), ops(42, w, c, 5000)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s caller %d: same seed gave different op sequences", w.name, c)
			}
			if reflect.DeepEqual(a, ops(43, w, c, 5000)) {
				t.Fatalf("%s caller %d: seeds 42 and 43 gave the same op sequence", w.name, c)
			}
		}
		if reflect.DeepEqual(ops(42, w, 0, 5000), ops(42, w, 1, 5000)) && w.prioBits > 0 {
			t.Fatalf("%s: callers 0 and 1 share an op sequence", w.name)
		}
	}
}

func TestGenMix(t *testing.T) {
	for _, w := range workloads {
		var inserts, abandons int
		all := ops(7, w, 0, 100000)
		for _, o := range all {
			if o.kind == opInsert {
				inserts++
				if w.prioBits > 0 && (o.prio < 0 || o.prio >= 1<<w.prioBits) {
					t.Fatalf("%s: priority %d outside [0, 2^%d)", w.name, o.prio, w.prioBits)
				}
			} else if o.abandon {
				abandons++
			}
		}
		if inserts < 49000 || inserts > 51000 {
			t.Errorf("%s: %d inserts in 100000 ops, want about half", w.name, inserts)
		}
		if w.lease && (abandons < 400 || abandons > 600) {
			t.Errorf("%s: %d abandons in about 50000 consumes, want about 1%%", w.name, abandons)
		}
		if !w.lease && abandons != 0 {
			t.Errorf("%s abandons leases", w.name)
		}
	}
}

func TestGenAscendingPriorities(t *testing.T) {
	w := findWorkload("durable-lease")
	seen := map[int64]bool{}
	for c := 0; c <= w.callers; c++ { // the last stream is the prefill
		g := newGen(1, w, c)
		last := int64(-1)
		for range 1000 {
			var p int64
			if c == w.callers {
				p = g.prefillPrio()
			} else if o := g.next(); o.kind == opInsert {
				p = o.prio
			} else {
				continue
			}
			if p <= last || seen[p] {
				t.Fatalf("stream %d: priority %d after %d, or repeated", c, p, last)
			}
			last, seen[p] = p, true
		}
	}
}
