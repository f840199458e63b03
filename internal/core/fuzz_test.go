package core

import (
	"sort"
	"testing"
)

// FuzzQueueModel drives the queue from a byte string against a map model:
// every even byte inserts key b/2, every odd byte deletes the minimum.
// Run with `go test -fuzz=FuzzQueueModel ./internal/core` for a deep
// exploration; plain `go test` replays the seed corpus.
func FuzzQueueModel(f *testing.F) {
	f.Add([]byte{0, 2, 4, 1, 1, 1})
	f.Add([]byte{})
	f.Add([]byte{255, 254, 253, 252, 1, 3, 5})
	f.Add([]byte{10, 10, 10, 1, 10, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		q := New[int64, int64](Config{Seed: 1})
		model := map[int64]int64{}
		step := int64(0)
		for _, b := range data {
			step++
			if b%2 == 0 {
				k := int64(b / 2)
				q.Insert(k, step)
				model[k] = step
			} else {
				k, v, ok := q.DeleteMin()
				if len(model) == 0 {
					if ok {
						t.Fatalf("DeleteMin on empty returned %d", k)
					}
					continue
				}
				var min int64 = 1 << 62
				for mk := range model {
					if mk < min {
						min = mk
					}
				}
				if !ok || k != min || v != model[min] {
					t.Fatalf("DeleteMin = (%d,%d,%v), want (%d,%d,true)", k, v, ok, min, model[min])
				}
				delete(model, min)
			}
		}
		got := q.CollectKeys(nil)
		want := make([]int64, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("final keys %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("final keys %v, want %v", got, want)
			}
		}
		if _, err := q.checkLevels(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzQueueSeqModel drives InsertSeq over a narrow key range, so keys
// repeat and seq decides their order, against a model ordered by
// (key, seq). Every even byte b inserts key (b>>1)&3 with seq b>>3; a
// repeated (key, seq) must update in place, a fresh one must insert. Every
// odd byte deletes the minimum, whose value identifies the pair.
func FuzzQueueSeqModel(f *testing.F) {
	f.Add([]byte{0, 8, 16, 2, 10, 0, 1, 1, 1, 1})
	f.Add([]byte{248, 8, 250, 2, 6, 1, 254, 1, 1, 1})
	f.Add([]byte{16, 16, 16, 1, 16, 1, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		type pair struct {
			key int64
			seq uint64
		}
		less := func(a, b pair) bool { return a.key < b.key || a.key == b.key && a.seq < b.seq }
		q := New[int64, int](Config{Seed: 1})
		model := map[pair]int{}
		for step, b := range data {
			if b%2 == 0 {
				p := pair{int64(b>>1) & 3, uint64(b >> 3)}
				_, present := model[p]
				res := q.InsertSeq(p.key, p.seq, step)
				if present != (res == Updated) {
					t.Fatalf("InsertSeq(%d, %d) = %v with the pair present=%v", p.key, p.seq, res, present)
				}
				model[p] = step
				continue
			}
			k, v, ok := q.DeleteMin()
			if len(model) == 0 {
				if ok {
					t.Fatalf("DeleteMin on empty returned %d", k)
				}
				continue
			}
			first := true
			var min pair
			for p := range model {
				if first || less(p, min) {
					min, first = p, false
				}
			}
			if !ok || k != min.key || v != model[min] {
				t.Fatalf("DeleteMin = (%d,%d,%v), want (%d,%d,true) for seq %d", k, v, ok, min.key, model[min], min.seq)
			}
			delete(model, min)
		}
		want := make([]pair, 0, len(model))
		for p := range model {
			want = append(want, p)
		}
		sort.Slice(want, func(i, j int) bool { return less(want[i], want[j]) })
		got := q.CollectKeys(nil)
		if len(got) != len(want) {
			t.Fatalf("final keys %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i].key {
				t.Fatalf("final keys %v, want %v", got, want)
			}
		}
		if _, err := q.checkLevels(); err != nil {
			t.Fatal(err)
		}
	})
}
