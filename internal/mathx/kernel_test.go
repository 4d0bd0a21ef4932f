package mathx

import (
	"fmt"
	"math"
	"testing"
)

// nanBits is the NaN the x86 SIMD units make (Inf·0, Inf − Inf). The tests
// feed no other NaN, so every NaN in play has one bit pattern, whichever
// operand a kernel's instruction takes it from, and results can be compared
// by math.Float64bits without exception.
const nanBits = 0xFFF8000000000000

// kernelValue draws one value of a regime: "wide" spans many binades, so any
// reordering of a sum or fusing of a product with its sum shows in the bits;
// "special" mixes in ±0, subnormals, ±Inf and NaN; "subnormal" makes the
// products and sums land among the subnormals.
func kernelValue(rng *RNG, regime string) float64 {
	switch regime {
	case "special":
		switch rng.Intn(10) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1000))
		case 3:
			return math.Inf(1 - 2*rng.Intn(2))
		case 4:
			return math.Float64frombits(nanBits)
		}
	case "subnormal":
		return rng.NormFloat64() * 1e-160
	}
	return rng.NormFloat64() * math.Ldexp(1, rng.Intn(40)-20)
}

// regimes lists kernelValue's regimes.
var regimes = []string{"wide", "special", "subnormal"}

// drawValues returns n values of a regime.
func drawValues(rng *RNG, n int, regime string) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = kernelValue(rng, regime)
	}
	return v
}

// kernel is one implementation of a kernel, by name.
type kernel[F any] struct {
	name string
	fn   F
}

// kernels lists the kernel the package runs (the AVX2 one where the CPU has
// it, see TestAVX2SweepSelected) and the portable one; on a host without
// AVX2 they are the same function.
func kernels[F any](active, portable F) []kernel[F] {
	return []kernel[F]{{"active", active}, {"go", portable}}
}

// naiveSweep is the specification: per element, the terms in order.
func naiveSweep(y, d, x []float64, rows []int) {
	n := len(y)
	for j := range y {
		for k, r := range rows {
			y[j] = y[j] + float64(d[k]*x[r*n+j])
		}
	}
}

// naiveStep is MomentumStep's specification, one operation a line.
func naiveStep(w, vw, g []float64, scale, l2, mu, lr float64) {
	for j := range w {
		a := float64(g[j] * scale)
		b := float64(l2 * w[j])
		grad := a + b
		c := float64(mu * vw[j])
		e := float64(lr * grad)
		vw[j] = c - e
		w[j] = w[j] + vw[j]
	}
}

// naiveAffine is Affine's specification: each row alone, each output a sum
// over the inputs in order from +0, then the bias.
func naiveAffine(w, b, in, out []float64) {
	n := len(in) / AffineRows
	for r := range AffineRows {
		for o := range b {
			s := 0.0
			for j := range n {
				s += float64(w[o*n+j] * in[j*AffineRows+r])
			}
			out[o*AffineRows+r] = s + b[o]
		}
	}
}

// firstDiff returns the first index at which a and b differ as bit
// patterns, or −1.
func firstDiff(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestSweepKernelsBitIdentical holds the sweep and momentum-step kernels to
// a naive per-element loop by math.Float64bits: lengths 0–131, so every
// tail of every block size, 0–9 terms drawn from the rows of a matrix in
// any order and with repeats, and values in every regime.
func TestSweepKernelsBitIdentical(t *testing.T) {
	rng := NewRNG(46)
	for _, regime := range regimes {
		for n := 0; n <= 131; n++ {
			for terms := 0; terms <= 9; terms++ {
				d, x := drawValues(rng, terms, regime), drawValues(rng, (terms+2)*n, regime)
				rows := make([]int, terms)
				for k := range rows {
					rows[k] = rng.Intn(terms + 2)
				}
				y := drawValues(rng, n, regime)
				want := CloneVec(y)
				naiveSweep(want, d, x, rows)
				for _, k := range kernels(sweep, sweepGo) {
					got := CloneVec(y)
					k.fn(got, d, x, rows)
					if i := firstDiff(got, want); i >= 0 {
						t.Fatalf("%s sweep, %s values, n=%d, %d terms: y[%d] = %v (%#x), want %v (%#x)",
							k.name, regime, n, terms, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}

			w, vw, g := drawValues(rng, n, regime), drawValues(rng, n, regime), drawValues(rng, n, regime)
			scale, l2, mu, lr := kernelValue(rng, regime), kernelValue(rng, regime), kernelValue(rng, regime), kernelValue(rng, regime)
			wantW, wantV := CloneVec(w), CloneVec(vw)
			naiveStep(wantW, wantV, g, scale, l2, mu, lr)
			for _, k := range kernels(step, stepGo) {
				gotW, gotV := CloneVec(w), CloneVec(vw)
				k.fn(gotW, gotV, g, scale, l2, mu, lr)
				if i := firstDiff(gotW, wantW); i >= 0 {
					t.Fatalf("%s step, %s values, n=%d: w[%d] = %v, want %v", k.name, regime, n, i, gotW[i], wantW[i])
				}
				if i := firstDiff(gotV, wantV); i >= 0 {
					t.Fatalf("%s step, %s values, n=%d: vw[%d] = %v, want %v", k.name, regime, n, i, gotV[i], wantV[i])
				}
			}
		}
	}
}

// TestAffineKernelsBitIdentical holds the affine kernels to naiveAffine by
// math.Float64bits, lane by lane: input and output widths 0, 1, 3, 4, 5, 64
// and 128, so both the four-neuron groups and the one-neuron tail, and
// values in every regime.
func TestAffineKernelsBitIdentical(t *testing.T) {
	rng := NewRNG(17)
	widths := []int{0, 1, 3, 4, 5, 64, 128}
	for _, regime := range regimes {
		for _, n := range widths {
			for _, outs := range widths {
				w, b, in := drawValues(rng, outs*n, regime), drawValues(rng, outs, regime), drawValues(rng, n*AffineRows, regime)
				want := make([]float64, outs*AffineRows)
				naiveAffine(w, b, in, want)
				for _, k := range kernels(affine, affineGo) {
					got := make([]float64, len(want))
					k.fn(w, b, in, got)
					if i := firstDiff(got, want); i >= 0 {
						t.Fatalf("%s affine, %s values, %d→%d: row %d, output %d = %v (%#x), want %v (%#x)", k.name, regime, n, outs,
							i%AffineRows, i/AffineRows, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// TestDistKernelsBitIdentical holds the distance kernels to SqDist by
// math.Float64bits, lane by lane, and their below-bound lanes to SqDist's
// distance < bound: d = 0…17, values in every regime, and bounds drawn,
// equal to a lane's distance, +Inf and NaN.
func TestDistKernelsBitIdentical(t *testing.T) {
	rng := NewRNG(11)
	var got, want [DistLanes]float64
	for _, regime := range regimes {
		for dim := 0; dim <= 17; dim++ {
			for trial := 0; trial < 8; trial++ {
				q, blk, p := drawValues(rng, dim, regime), drawValues(rng, dim*DistLanes, regime), make(Vec, dim)
				for l := range want {
					for j := range p {
						p[j] = blk[j*DistLanes+l]
					}
					want[l] = SqDist(q, p)
				}
				for _, bound := range []float64{kernelValue(rng, regime), want[rng.Intn(DistLanes)], math.Inf(1), math.Float64frombits(nanBits)} {
					var below uint32
					for l, d := range want {
						if d < bound {
							below |= 1 << l
						}
					}
					for _, k := range kernels(sqDists, sqDistsGo) {
						mask := k.fn(q, blk, bound, &got)
						if l := firstDiff(got[:], want[:]); l >= 0 {
							t.Fatalf("%s distances, %s values, d=%d: lane %d = %v (%#x), SqDist %v (%#x)",
								k.name, regime, dim, l, got[l], math.Float64bits(got[l]), want[l], math.Float64bits(want[l]))
						}
						if mask != below {
							t.Fatalf("%s distances, %s values, d=%d, bound %v: lanes below %016b, want %016b", k.name, regime, dim, bound, mask, below)
						}
					}
				}
			}
		}
	}
}

// TestSweepPanics: mismatched shapes panic in Sweep and in every other
// kernel's wrapper instead of reading past a row, a tile or a block.
func TestSweepPanics(t *testing.T) {
	var out [DistLanes]float64
	v := func(n int) []float64 { return make([]float64, n) }
	const r = AffineRows
	for name, f := range map[string]func(){
		"terms":    func() { Sweep(v(4), []float64{1, 2}, v(8), []int{0}) },
		"row":      func() { Sweep(v(4), []float64{1}, v(7), []int{1}) },
		"negative": func() { Sweep(v(4), []float64{1}, v(8), []int{-1}) },
		"momentum": func() { MomentumStep(v(4), v(3), v(4), 1, 1, 1, 1) },
		"tile":     func() { Affine(v(6), v(2), v(3*r-1), v(2*r)) },
		"weights":  func() { Affine(v(5), v(2), v(3*r), v(2*r)) },
		"outputs":  func() { Affine(v(6), v(2), v(3*r), v(r)) },
		"block":    func() { SqDists(v(3), v(2*DistLanes), 1, &out) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// BenchmarkKernels runs each kernel in use and its portable twin: one Sweep
// of 1, 4 and 16 terms over 32, 64 and 128 elements, the widths of the DNN
// PPs' training rows; one tile through the DNN PPs' layers (32→128, 128→64,
// 64→1); and one block of distances at the KDE PPs' d = 8.
func BenchmarkKernels(b *testing.B) {
	rng := NewRNG(7)
	normal := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	for _, n := range []int{32, 64, 128} {
		for _, terms := range []int{1, 4, 16} {
			y, d, x, rows := make([]float64, n), normal(terms), normal(terms*n), make([]int, terms)
			for k := range rows {
				rows[k] = k
			}
			for _, k := range kernels(sweep, sweepGo) {
				b.Run(fmt.Sprintf("sweep/n=%d/terms=%d/%s", n, terms, k.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						clear(y)
						k.fn(y, d, x, rows)
					}
				})
			}
		}
	}
	for _, shape := range [][2]int{{32, 128}, {128, 64}, {64, 1}} {
		n, outs := shape[0], shape[1]
		w, bias, in, out := normal(outs*n), normal(outs), normal(n*AffineRows), make([]float64, outs*AffineRows)
		for _, k := range kernels(affine, affineGo) {
			b.Run(fmt.Sprintf("affine/%d→%d/%s", n, outs, k.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.fn(w, bias, in, out)
				}
			})
		}
	}
	q, blk := normal(8), normal(8*DistLanes)
	var out [DistLanes]float64
	for _, k := range kernels(sqDists, sqDistsGo) {
		b.Run("dists/d=8/"+k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.fn(q, blk, 8, &out)
			}
		})
	}
}
