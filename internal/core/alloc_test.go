package core

import "testing"

// TestHotPathAllocs pins the allocation count of the two operations. An
// Insert of a new key allocates exactly the node, with its tower in the
// same object, and the boxed value; the predecessor scratch lives on the
// stack and the level draw is allocation-free. DeleteMin allocates nothing.
func TestHotPathAllocs(t *testing.T) {
	const runs = 1000
	q := New[int64, int64](Config{Seed: 1})
	var key int64
	if n := testing.AllocsPerRun(runs, func() {
		key++
		q.Insert(key, key)
	}); n != 2 {
		t.Fatalf("Insert allocates %v per op, want 2", n)
	}
	if n := testing.AllocsPerRun(runs, func() {
		if _, _, ok := q.DeleteMin(); !ok {
			t.Fatal("DeleteMin on a filled queue returned EMPTY")
		}
	}); n != 0 {
		t.Fatalf("DeleteMin allocates %v per op, want 0", n)
	}
}
