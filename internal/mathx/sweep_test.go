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

// sweepValue draws one value of a regime: "wide" spans many binades, so any
// reordering of a sum or fusing of a product with its sum shows in the bits;
// "special" mixes in ±0, subnormals, ±Inf and NaN; "subnormal" makes the
// products and sums land among the subnormals.
func sweepValue(rng *RNG, regime string) float64 {
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

// TestSweepKernelsBitIdentical holds the kernels Sweep and MomentumStep run
// (the AVX2 ones where the CPU has them, see TestAVX2SweepSelected) and the
// portable ones to a naive per-element loop, by math.Float64bits: lengths
// 0–131, so every tail of every block size, 0–9 terms drawn from the rows
// of a matrix in any order and with repeats, and values that span many
// binades, that include ±0, subnormals, ±Inf and NaN, or that are all
// subnormal.
func TestSweepKernelsBitIdentical(t *testing.T) {
	rng := NewRNG(46)
	draw := func(n int, regime string) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = sweepValue(rng, regime)
		}
		return v
	}
	for _, regime := range []string{"wide", "special", "subnormal"} {
		for n := 0; n <= 131; n++ {
			for terms := 0; terms <= 9; terms++ {
				d, x := draw(terms, regime), draw((terms+2)*n, regime)
				rows := make([]int, terms)
				for k := range rows {
					rows[k] = rng.Intn(terms + 2)
				}
				y := draw(n, regime)
				want := CloneVec(y)
				naiveSweep(want, d, x, rows)
				for _, k := range []struct {
					name string
					fn   func(y, d, x []float64, rows []int)
				}{{"active", sweep}, {"go", sweepGo}} {
					got := CloneVec(y)
					k.fn(got, d, x, rows)
					if i := firstDiff(got, want); i >= 0 {
						t.Fatalf("%s sweep, %s values, n=%d, %d terms: y[%d] = %v (%#x), want %v (%#x)",
							k.name, regime, n, terms, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}

			w, vw, g := draw(n, regime), draw(n, regime), draw(n, regime)
			scale, l2, mu, lr := sweepValue(rng, regime), sweepValue(rng, regime), sweepValue(rng, regime), sweepValue(rng, regime)
			wantW, wantV := CloneVec(w), CloneVec(vw)
			naiveStep(wantW, wantV, g, scale, l2, mu, lr)
			for _, k := range []struct {
				name string
				fn   func(w, vw, g []float64, scale, l2, mu, lr float64)
			}{{"active", step}, {"go", stepGo}} {
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

// TestSweepPanics: mismatched shapes panic instead of reading past a row.
func TestSweepPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"terms":    func() { Sweep(make([]float64, 4), []float64{1, 2}, make([]float64, 8), []int{0}) },
		"row":      func() { Sweep(make([]float64, 4), []float64{1}, make([]float64, 7), []int{1}) },
		"negative": func() { Sweep(make([]float64, 4), []float64{1}, make([]float64, 8), []int{-1}) },
		"momentum": func() { MomentumStep(make([]float64, 4), make([]float64, 3), make([]float64, 4), 1, 1, 1, 1) },
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

// BenchmarkSweep runs one Sweep of 1, 4 and 16 terms over 32, 64 and 128
// elements, the widths of the DNN PPs' training rows, through the kernel in
// use and through the portable one.
func BenchmarkSweep(b *testing.B) {
	rng := NewRNG(7)
	for _, n := range []int{32, 64, 128} {
		for _, terms := range []int{1, 4, 16} {
			y, d, x, rows := make([]float64, n), make([]float64, terms), make([]float64, terms*n), make([]int, terms)
			for k := range d {
				d[k], rows[k] = rng.NormFloat64(), k
			}
			for j := range x {
				x[j] = rng.NormFloat64()
			}
			for _, k := range []struct {
				name string
				fn   func(y, d, x []float64, rows []int)
			}{{"active", sweep}, {"go", sweepGo}} {
				b.Run(fmt.Sprintf("n=%d/terms=%d/%s", n, terms, k.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						clear(y)
						k.fn(y, d, x, rows)
					}
				})
			}
		}
	}
}
