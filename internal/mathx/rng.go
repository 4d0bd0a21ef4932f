// Package mathx provides the small numeric substrate shared by every other
// package in this repository: deterministic random number generation, dense
// and sparse vectors, dense matrices, and summary statistics.
//
// All randomness in the repository flows through RNG so that experiments are
// reproducible bit-for-bit from a seed.
package mathx

import "math"

// RNG is a deterministic pseudo-random number generator based on splitmix64.
// The zero value is a valid generator seeded with 0; use NewRNG to seed.
//
// RNG intentionally does not wrap math/rand: a self-contained generator
// guarantees the stream is stable across Go releases, which keeps the
// experiment tables in EXPERIMENTS.md reproducible.
type RNG struct {
	state uint64
	// spare holds a cached second normal variate from the Box-Muller pair.
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Split returns a new generator whose stream is independent of r's. It is
// used to hand child components their own reproducible streams.
func (r *RNG) Split() *RNG {
	return &RNG{state: r.Uint64() ^ 0x9e3779b97f4a7c15}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform float64 in [0, 1). The conversion keeps a
// caller's add from fusing with the scaling (exact, so only a listing
// could tell, but the arm64 FMA check reads listings).
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("mathx: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard normal variate using the Box-Muller
// transform.
func (r *RNG) NormFloat64() float64 {
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
	// Sincos takes one argument reduction for both; its results equal
	// Sin's and Cos's bit for bit (TestNormFloat64MatchesSinCos).
	sin, cos := math.Sincos(2 * math.Pi * v)
	r.spare = mag * sin
	r.hasSpare = true
	return mag * cos
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles p in place with the Fisher-Yates algorithm.
func (r *RNG) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Choice returns a uniformly chosen index weighted by w (w need not sum to
// one but must be non-negative with a positive total).
func (r *RNG) Choice(w []float64) int {
	total := 0.0
	for _, v := range w {
		total += v
	}
	if total <= 0 {
		panic("mathx: Choice requires positive total weight")
	}
	t := r.Float64() * total
	acc := 0.0
	for i, v := range w {
		acc += v
		if t < acc {
			return i
		}
	}
	return len(w) - 1
}
