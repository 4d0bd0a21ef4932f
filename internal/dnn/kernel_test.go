package dnn

import (
	"fmt"
	"math"
	"testing"

	"probpred/internal/mathx"
)

type kernel struct {
	name string
	fn   func(w, b, in, out []float64)
}

// kernels lists the kernel the package runs and the portable one; on a
// host without AVX2 they are the same function.
func kernels() []kernel {
	return []kernel{{"active", affine}, {"go", affineGo}}
}

// useKernel makes fn the package's kernel and returns the undo.
func useKernel(fn func(w, b, in, out []float64)) func() {
	old := affine
	affine = fn
	return func() { affine = old }
}

// value draws a weight or an input: mostly normal, sometimes ±0, a
// subnormal, or a value far from 1, so lanes meet signed zeros, gradual
// underflow and wide exponent gaps.
func value(rng *mathx.RNG) float64 {
	switch rng.Intn(16) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return float64(1+rng.Intn(1000)) * 5e-324 * float64(1-2*rng.Intn(2))
	case 3:
		return rng.NormFloat64() * 1e-300
	case 4:
		return rng.NormFloat64() * 1e12
	}
	return rng.NormFloat64()
}

// randomModel builds a network of the given widths (input first, logit
// last) with weights and biases drawn by value.
func randomModel(dims []int, rng *mathx.RNG) *Model {
	m := &Model{}
	for i := 0; i+1 < len(dims); i++ {
		l := newLayer(dims[i], dims[i+1], rng)
		for j := range l.w {
			l.w[j] = value(rng)
		}
		for j := range l.b {
			l.b[j] = value(rng)
		}
		m.layers = append(m.layers, l)
		m.params += len(l.w) + len(l.b)
	}
	return m
}

var kernelWidths = []int{1, 3, 4, 5, 64, 128}

// TestKernelsBitIdentical holds the affine kernel the package runs (the
// AVX2 one where the CPU has it) and the portable kernel to the per-row
// reference in ref_test.go, bit for bit by math.Float64bits: every lane of
// one layer for each pair of input and output widths in kernelWidths, and
// whole networks of 1–3 hidden layers scored by ScoreBatch over 1, 7, 8, 9
// and 150 rows on either kernel and by Score. Weights and inputs include ±0
// and subnormals.
func TestKernelsBitIdentical(t *testing.T) {
	rng := mathx.NewRNG(17)
	for _, in := range kernelWidths {
		for _, out := range kernelWidths {
			l := randomModel([]int{in, out}, rng).layers[0]
			x := make([]float64, in*tile)
			for j := range x {
				x[j] = value(rng)
			}
			for _, k := range kernels() {
				z := make([]float64, out*tile)
				k.fn(l.w, l.b, x, z)
				for r := range tile {
					row := make(mathx.Vec, in)
					getRow(row, x, r)
					want := l.forward(row)
					for o, v := range want {
						if got := z[o*tile+r]; math.Float64bits(got) != math.Float64bits(v) {
							t.Fatalf("%s kernel, %d→%d layer, row %d, output %d: %v (%#x), per-row reference %v (%#x)",
								k.name, in, out, r, o, got, math.Float64bits(got), v, math.Float64bits(v))
						}
					}
				}
			}
		}
	}
	for depth := 1; depth <= 3; depth++ {
		for wi := range kernelWidths {
			dims := []int{kernelWidths[(wi+depth)%len(kernelWidths)]}
			for h := range depth {
				dims = append(dims, kernelWidths[(wi+2*h)%len(kernelWidths)])
			}
			dims = append(dims, 1)
			m := randomModel(dims, rng)
			d := dims[0]
			for _, n := range []int{1, 7, 8, 9, 150} {
				name := fmt.Sprintf("depth=%d/dims=%v/rows=%d", depth, dims, n)
				xs := make([]float64, n*d)
				for j := range xs {
					xs[j] = value(rng)
				}
				want := make([]uint64, n)
				for i := range want {
					x := xs[i*d : (i+1)*d]
					want[i] = math.Float64bits(m.scoreRef(x))
					if got := math.Float64bits(m.Score(x)); got != want[i] {
						t.Fatalf("%s row %d: Score %#x, per-row reference %#x", name, i, got, want[i])
					}
				}
				for _, k := range kernels() {
					out := make([]float64, n)
					undo := useKernel(k.fn)
					m.ScoreBatch(xs, d, out)
					undo()
					for i, v := range out {
						if got := math.Float64bits(v); got != want[i] {
							t.Fatalf("%s row %d: ScoreBatch on the %s kernel %#x, per-row reference %#x", name, i, k.name, got, want[i])
						}
					}
				}
			}
		}
	}
}

// BenchmarkScoreBatch scores 150 rows, one stream_heavy segment, through a
// network of the benchmark's DNN PP shape (32→128→64→1) on the kernel the
// package runs and on the portable one. Weights and inputs are normal
// draws: no subnormals, which cost either kernel microcode assists.
func BenchmarkScoreBatch(b *testing.B) {
	const n, d = 150, 32
	rng := mathx.NewRNG(3)
	m := &Model{}
	for _, l := range []*layer{newLayer(d, 128, rng), newLayer(128, 64, rng), newLayer(64, 1, rng)} {
		m.layers = append(m.layers, l)
	}
	xs := make([]float64, n*d)
	for j := range xs {
		xs[j] = rng.NormFloat64()
	}
	out := make([]float64, n)
	for _, k := range kernels() {
		b.Run(k.name, func(b *testing.B) {
			defer useKernel(k.fn)()
			for i := 0; i < b.N; i++ {
				m.ScoreBatch(xs, d, out)
			}
		})
	}
}
