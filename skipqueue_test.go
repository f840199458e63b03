package skipqueue

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestQueueBasics(t *testing.T) {
	q := New[int, string]()
	if _, _, ok := q.DeleteMin(); ok {
		t.Fatal("empty DeleteMin returned ok")
	}
	if !q.Insert(3, "three") {
		t.Fatal("fresh Insert reported update")
	}
	if q.Insert(3, "THREE") {
		t.Fatal("duplicate Insert reported fresh")
	}
	q.Insert(1, "one")
	q.Insert(2, "two")
	if q.Len() != 3 {
		t.Fatalf("Len = %d", q.Len())
	}
	k, v, ok := q.PeekMin()
	if !ok || k != 1 || v != "one" {
		t.Fatalf("PeekMin = %v %v %v", k, v, ok)
	}
	want := []string{"one", "two", "THREE"}
	for i := 0; i < 3; i++ {
		_, v, ok := q.DeleteMin()
		if !ok || v != want[i] {
			t.Fatalf("DeleteMin #%d = %q", i, v)
		}
	}
}

func TestQueueOptions(t *testing.T) {
	q := New[int64, int64](WithRelaxed(), WithMaxLevel(8), WithP(0.25), WithSeed(5))
	if !q.Relaxed() {
		t.Fatal("WithRelaxed not applied")
	}
	for i := int64(0); i < 100; i++ {
		q.Insert(i, i)
	}
	for i := int64(0); i < 100; i++ {
		k, _, ok := q.DeleteMin()
		if !ok || k != i {
			t.Fatalf("DeleteMin = %d, want %d", k, i)
		}
	}
}

func TestQueueKeys(t *testing.T) {
	q := New[int, int](WithSeed(1))
	for _, k := range []int{5, 1, 3} {
		q.Insert(k, k)
	}
	keys := q.Keys()
	if len(keys) != 3 || keys[0] != 1 || keys[1] != 3 || keys[2] != 5 {
		t.Fatalf("Keys = %v", keys)
	}
}

func TestQueueStats(t *testing.T) {
	q := New[int, int]()
	q.Insert(1, 1)
	q.DeleteMin()
	st := q.Stats()
	if st.Inserts != 1 || st.DeleteMins != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPQDuplicatePrioritiesFIFO(t *testing.T) {
	pq := NewPQ[string]()
	pq.Push(5, "a")
	pq.Push(5, "b")
	pq.Push(1, "first")
	pq.Push(5, "c")
	if pq.Len() != 4 {
		t.Fatalf("Len = %d", pq.Len())
	}
	p, v, ok := pq.Peek()
	if !ok || p != 1 || v != "first" {
		t.Fatalf("Peek = %d %q %v", p, v, ok)
	}
	var got []string
	for {
		p, v, ok := pq.Pop()
		if !ok {
			break
		}
		if len(got) > 0 && p < 1 {
			t.Fatalf("priority went backwards: %d", p)
		}
		got = append(got, v)
	}
	want := []string{"first", "a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain = %v, want %v", got, want)
		}
	}
}

func TestPQNegativePriorities(t *testing.T) {
	pq := NewPQ[int]()
	pq.Push(10, 10)
	pq.Push(-5, -5)
	pq.Push(0, 0)
	order := []int64{-5, 0, 10}
	for _, want := range order {
		p, v, ok := pq.Pop()
		if !ok || p != want || int64(v) != want {
			t.Fatalf("Pop = %d %d %v, want %d", p, v, ok, want)
		}
	}
}

func TestPQKeyEncodingProperty(t *testing.T) {
	f := func(p1, p2 int64, s1, s2 uint64) bool {
		k1, k2 := pqKey(p1, s1), pqKey(p2, s2)
		switch {
		case p1 < p2:
			return k1 < k2
		case p1 > p2:
			return k1 > k2
		case s1 < s2:
			return k1 < k2
		case s1 > s2:
			return k1 > k2
		default:
			return k1 == k2
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	// Round trip.
	g := func(p int64, s uint64) bool { return pqPriority(pqKey(p, s)) == p }
	if err := quick.Check(g, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPQConcurrent(t *testing.T) {
	pq := NewPQ[int](WithSeed(3))
	const workers = 8
	const per = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				if rng.Intn(2) == 0 {
					pq.Push(int64(rng.Intn(100)), w*per+i)
				} else {
					pq.Pop()
				}
			}
		}(w)
	}
	wg.Wait()
	st := pq.Stats()
	if int(st.Inserts) != pq.Len()+int(st.DeleteMins) {
		t.Fatalf("conservation: %d pushed, %d popped, %d left",
			st.Inserts, st.DeleteMins, pq.Len())
	}
}

// TestPQHotPathAllocs pins PQ's allocation count: a Push allocates the node,
// with its tower in the same object, and the boxed value; a Pop allocates
// nothing, since the priority is the node's own key.
func TestPQHotPathAllocs(t *testing.T) {
	const runs = 1000
	pq := NewPQ[int64](WithSeed(1))
	var i int64
	if n := testing.AllocsPerRun(runs, func() {
		i++
		pq.Push(i%16, i)
	}); n != 2 {
		t.Fatalf("Push allocates %v per op, want 2", n)
	}
	if n := testing.AllocsPerRun(runs, func() {
		if _, _, ok := pq.Pop(); !ok {
			t.Fatal("Pop on a filled queue returned empty")
		}
	}); n != 0 {
		t.Fatalf("Pop allocates %v per op, want 0", n)
	}
}

// TestPQConcurrentEqualPriorities has 8 goroutines push onto 4 priorities,
// the extremes of int64 among them, while 4 of them also pop. Every pushed
// element must come out exactly once. Each popper, and the quiescent drain
// that follows, must see one producer's equal-priority elements in push
// order: a later push sorts after an earlier one and its insertion starts
// only after the earlier one completed.
func TestPQConcurrentEqualPriorities(t *testing.T) {
	priorities := []int64{math.MinInt64, -1, 0, math.MaxInt64}
	const workers = 8
	const per = 3000
	type elem struct{ producer, index int }
	pq := NewPQ[elem](WithSeed(9))
	checkOrder := func(last map[[2]int64]int, p int64, e elem) error {
		k := [2]int64{p, int64(e.producer)}
		if prev, seen := last[k]; seen && e.index <= prev {
			return fmt.Errorf("producer %d priority %d: element %d after %d", e.producer, p, e.index, prev)
		}
		last[k] = e.index
		return nil
	}
	popped := make([][]elem, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			last := map[[2]int64]int{}
			for i := 0; i < per; i++ {
				pq.Push(priorities[(i+w)%len(priorities)], elem{w, i})
				if w%2 == 1 && i%3 != 0 {
					if p, e, ok := pq.Pop(); ok {
						if err := checkOrder(last, p, e); err != nil {
							t.Error(err)
							return
						}
						popped[w] = append(popped[w], e)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	seen := make([][]bool, workers)
	for w := range seen {
		seen[w] = make([]bool, per)
	}
	count := func(e elem) {
		if seen[e.producer][e.index] {
			t.Fatalf("element %+v delivered twice", e)
		}
		seen[e.producer][e.index] = true
	}
	for _, es := range popped {
		for _, e := range es {
			count(e)
		}
	}
	last := map[[2]int64]int{}
	prevP := int64(math.MinInt64)
	for {
		p, e, ok := pq.Pop()
		if !ok {
			break
		}
		if p < prevP {
			t.Fatalf("drain: priority %d after %d", p, prevP)
		}
		prevP = p
		if want := priorities[(e.index+e.producer)%len(priorities)]; p != want {
			t.Fatalf("element %+v popped with priority %d, pushed with %d", e, p, want)
		}
		if err := checkOrder(last, p, e); err != nil {
			t.Fatalf("drain: %v", err)
		}
		count(e)
	}
	for w := range seen {
		for i, ok := range seen[w] {
			if !ok {
				t.Fatalf("element {%d %d} lost", w, i)
			}
		}
	}
}

func TestHeapWrapper(t *testing.T) {
	h := NewHeap[int, string](3)
	for i := 0; i < h.Cap(); i++ {
		if err := h.Insert(i, "v"); err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
	}
	if err := h.Insert(99, "x"); err != ErrFull {
		t.Fatalf("Insert on full heap: %v", err)
	}
	k, _, ok := h.DeleteMin()
	if !ok || k != 0 {
		t.Fatalf("DeleteMin = %d %v", k, ok)
	}
	if h.Len() != h.Cap()-1 {
		t.Fatalf("Len = %d", h.Len())
	}
	if st := h.Stats(); st.Fulls != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFunnelListWrapper(t *testing.T) {
	f := NewFunnelList[int, string]()
	f.Insert(2, "b")
	f.Insert(1, "a")
	f.Insert(2, "b2") // multiset
	if f.Len() != 3 {
		t.Fatalf("Len = %d", f.Len())
	}
	k, v, ok := f.DeleteMin()
	if !ok || k != 1 || v != "a" {
		t.Fatalf("DeleteMin = %d %q %v", k, v, ok)
	}
	if st := f.Stats(); st.DeleteMins != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCrossImplementationAgreement(t *testing.T) {
	// All three structures drain the same random input in the same order
	// when used sequentially.
	rng := rand.New(rand.NewSource(42))
	keys := make([]int, 500)
	seen := map[int]bool{}
	for i := range keys {
		for {
			k := rng.Intn(1 << 20)
			if !seen[k] {
				seen[k] = true
				keys[i] = k
				break
			}
		}
	}
	q := New[int, int]()
	h := NewHeap[int, int](len(keys))
	f := NewFunnelList[int, int]()
	for _, k := range keys {
		q.Insert(k, k)
		if err := h.Insert(k, k); err != nil {
			t.Fatal(err)
		}
		f.Insert(k, k)
	}
	for i := 0; i < len(keys); i++ {
		qk, _, _ := q.DeleteMin()
		hk, _, _ := h.DeleteMin()
		fk, _, _ := f.DeleteMin()
		if qk != hk || hk != fk {
			t.Fatalf("step %d: queue=%d heap=%d funnel=%d", i, qk, hk, fk)
		}
	}
}
