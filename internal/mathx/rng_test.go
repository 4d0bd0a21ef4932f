package mathx

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestRNGSeedsDiffer(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestFloat64Uniformity(t *testing.T) {
	r := NewRNG(11)
	const n = 100000
	var buckets [10]int
	for i := 0; i < n; i++ {
		buckets[int(r.Float64()*10)]++
	}
	for i, c := range buckets {
		frac := float64(c) / n
		if frac < 0.08 || frac > 0.12 {
			t.Errorf("bucket %d has fraction %.4f, want ~0.1", i, frac)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := NewRNG(13)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestIntnBounds(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) = %d", v)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	r := NewRNG(5)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestSplitIndependence(t *testing.T) {
	r := NewRNG(9)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children produced identical first draws")
	}
}

func TestBernoulliFrequency(t *testing.T) {
	r := NewRNG(17)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.28 || frac > 0.32 {
		t.Errorf("Bernoulli(0.3) frequency = %v", frac)
	}
}

func TestChoiceWeights(t *testing.T) {
	r := NewRNG(19)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 60000
	for i := 0; i < n; i++ {
		counts[r.Choice(w)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight option chosen %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
}

func TestChoicePanicsOnZeroTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero total weight")
		}
	}()
	NewRNG(1).Choice([]float64{0, 0})
}

// normFloat64Ref is NormFloat64 as it was written before it called
// math.Sincos: a separate math.Sin and math.Cos.
func normFloat64Ref(r *RNG) float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	var u, v float64
	for {
		u = r.Float64()
		if u > 0 {
			break
		}
	}
	v = r.Float64()
	mag := math.Sqrt(-2 * math.Log(u))
	r.spare = mag * math.Sin(2*math.Pi*v)
	r.hasSpare = true
	return mag * math.Cos(2*math.Pi*v)
}

// TestNormFloat64MatchesSinCos holds NormFloat64 to the Sin-and-Cos
// reference above, bit for bit, over 1.2 million draws from four seeds:
// the normals every generator in internal/data draws must not move.
func TestNormFloat64MatchesSinCos(t *testing.T) {
	for _, seed := range []uint64{0, 42, 0x7a44, 0x7a441c ^ 9911} {
		got, want := NewRNG(seed), NewRNG(seed)
		for i := 0; i < 300_000; i++ {
			if g, w := got.NormFloat64(), normFloat64Ref(want); math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("seed %d draw %d: %v (%#x), reference %v (%#x)", seed, i, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
}
