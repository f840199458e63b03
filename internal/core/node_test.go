package core

import (
	"testing"

	"skipqueue/internal/vclock"
)

// TestNewNodeTowerHeights builds a node of every height a queue can draw and
// checks the tower: exactly level links, each starting with a nil successor
// and an unlocked mutex, inside the smallest size class that fits.
func TestNewNodeTowerHeights(t *testing.T) {
	for level := 1; level <= maxLevelCap; level++ {
		v := level
		n := newNode[int64, int](-7, 3, &v, level)
		if n.level() != level {
			t.Fatalf("level %d: tower has %d links", level, n.level())
		}
		wantCap := level
		for _, class := range []int{1, 2, 4, 8} {
			if level <= class {
				wantCap = class
				break
			}
		}
		if cap(n.links) != wantCap {
			t.Fatalf("level %d: tower capacity %d, want %d", level, cap(n.links), wantCap)
		}
		for i := range n.links {
			l := &n.links[i]
			if l.next.Load() != nil {
				t.Fatalf("level %d: link %d starts with a successor", level, i)
			}
			if !l.mu.TryLock() {
				t.Fatalf("level %d: link %d starts locked", level, i)
			}
			l.mu.Unlock()
		}
		if n.key != -7 || n.seq != 3 || n.value.Load() != &v {
			t.Fatalf("level %d: node holds (%d, %d, %p), want (-7, 3, %p)", level, n.key, n.seq, n.value.Load(), &v)
		}
		if n.timeStamp.Load() != vclock.MaxTime || n.deleted.Load() != 0 {
			t.Fatalf("level %d: node born with stamp %d, deleted %d", level, n.timeStamp.Load(), n.deleted.Load())
		}
	}
}

// TestMaxLevelFillDrain fills a MaxLevel 32 queue whose towers reach past
// the largest size class, with repeated keys ordered by seq, and checks the
// skiplist invariant after the fill, a partial drain and the full drain.
func TestMaxLevelFillDrain(t *testing.T) {
	const n = 2000
	q := New[int64, int](Config{MaxLevel: maxLevelCap, P: 0.75, Seed: 5})
	for i := 0; i < n; i++ {
		if q.InsertSeq(int64(i%50), uint64(n-i), i) != Inserted {
			t.Fatalf("InsertSeq(%d, %d) updated, want a fresh node", i%50, n-i)
		}
	}
	tall := 0
	for x := q.head.loadNext(0); x != q.tail; x = x.loadNext(0) {
		if x.level() > 8 {
			tall++
		}
	}
	if tall == 0 {
		t.Fatal("no tower is taller than the largest size class")
	}
	check := func(phase string, want int) {
		t.Helper()
		got, err := q.checkLevels()
		if err != nil {
			t.Fatalf("%s: %v", phase, err)
		}
		if got != want {
			t.Fatalf("%s: %d nodes on the bottom level, want %d", phase, got, want)
		}
	}
	check("fill", n)
	// Within a key, the larger i was inserted with the smaller seq, so it
	// leaves first.
	prevKey, prevVal := int64(-1), n
	for i := 0; i < n; i++ {
		k, v, ok := q.DeleteMin()
		if !ok {
			t.Fatalf("DeleteMin %d: EMPTY", i)
		}
		if k < prevKey || k == prevKey && v >= prevVal {
			t.Fatalf("DeleteMin %d = (%d, %d) after (%d, %d)", i, k, v, prevKey, prevVal)
		}
		prevKey, prevVal = k, v
		if i == n/2 {
			check("partial drain", n-n/2-1)
		}
	}
	check("drain", 0)
}
