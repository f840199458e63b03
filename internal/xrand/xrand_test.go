package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := NewRand(12345), NewRand(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed generators diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/100 equal values", same)
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for seed 0 from the splitmix64 reference
	// implementation.
	s := NewSplitMix64(0)
	want := []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Fatalf("SplitMix64 value %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := NewRand(7)
	for n := 1; n <= 100; n++ {
		for i := 0; i < 50; i++ {
			if v := r.Intn(n); v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestUint64nPowerOfTwo(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 1000; i++ {
		if v := r.Uint64n(16); v >= 16 {
			t.Fatalf("Uint64n(16) = %d", v)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewRand(13)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	r := NewRand(17)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	if frac := float64(hits) / n; math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) rate = %v", frac)
	}
}

func TestGeometricLevelBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRand(seed)
		for i := 0; i < 100; i++ {
			l := r.GeometricLevel(0.5, 10)
			if l < 1 || l > 10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometricLevelMean(t *testing.T) {
	r := NewRand(19)
	sum := 0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.GeometricLevel(0.5, 32)
	}
	// Expected value of the capped geometric with p=0.5 is about 2.
	if mean := float64(sum) / n; math.Abs(mean-2.0) > 0.02 {
		t.Fatalf("GeometricLevel mean = %v, want about 2", mean)
	}
}

// TestLevelAtDistribution: seeds drawn as a shared counter draws them
// (one SplitMix64 increment apart) give capped geometric heights with the
// expected mean, independently of their neighbours: a seed's coin flips
// must not be its predecessor's shifted by one, which would make every
// tall tower the top of a descending staircase.
func TestLevelAtDistribution(t *testing.T) {
	const n = 200000
	seed := uint64(23)
	sum, tall, stair := 0, 0, 0
	prev := 0
	for i := 0; i < n; i++ {
		seed += splitMixGamma
		l := LevelAt(seed, 0.5, 32)
		if l < 1 || l > 32 {
			t.Fatalf("LevelAt = %d, want 1..32", l)
		}
		if LevelAt(seed, 0.5, 32) != l {
			t.Fatal("LevelAt is not a function of its seed")
		}
		sum += l
		if prev >= 3 {
			tall++
			if l == prev-1 {
				stair++
			}
		}
		prev = l
	}
	if mean := float64(sum) / n; math.Abs(mean-2.0) > 0.02 {
		t.Fatalf("LevelAt mean = %v, want about 2", mean)
	}
	// Independent heights follow a tower of height >= 3 with height h-1
	// at most a quarter of the time; shifted sequences always do.
	if frac := float64(stair) / float64(tall); frac > 0.3 {
		t.Fatalf("%.2f of towers >= 3 are followed by one a level lower; heights are correlated", frac)
	}
	if l := LevelAt(1, 0.999, 5); l > 5 {
		t.Fatalf("LevelAt ignores the cap: %d", l)
	}
}
