package dnn

import (
	"fmt"
	"math"
	"testing"

	"probpred/internal/mathx"
)

// TestScoreBatchMatchesReference holds ScoreBatch and Score to the per-row
// reference in ref_test.go, bit for bit by math.Float64bits: networks of 1–3
// hidden layers of widths 1/3/4/5/64/128, over 1, 7, 8, 9 and 150 rows, with
// a quarter of the weights and inputs ±0. The affine kernel itself, AVX2 and
// portable, is held to its per-row specification lane by lane in mathx.
func TestScoreBatchMatchesReference(t *testing.T) {
	rng := mathx.NewRNG(17)
	draw := func() float64 {
		v := rng.NormFloat64()
		if rng.Intn(4) == 0 {
			return math.Copysign(0, v)
		}
		return v
	}
	widths := []int{1, 3, 4, 5, 64, 128}
	for depth := 1; depth <= 3; depth++ {
		for wi := range widths {
			dims := []int{widths[(wi+depth)%len(widths)]}
			for h := range depth {
				dims = append(dims, widths[(wi+2*h)%len(widths)])
			}
			dims = append(dims, 1)
			m := &Model{}
			for i := 0; i+1 < len(dims); i++ {
				l := newLayer(dims[i], dims[i+1], rng)
				for _, ps := range [2][]float64{l.w, l.b} {
					for j := range ps {
						ps[j] = draw()
					}
				}
				m.layers = append(m.layers, l)
			}
			d := dims[0]
			for _, n := range []int{1, 7, 8, 9, 150} {
				name := fmt.Sprintf("depth=%d/dims=%v/rows=%d", depth, dims, n)
				xs := make([]float64, n*d)
				for j := range xs {
					xs[j] = draw()
				}
				out := make([]float64, n)
				m.ScoreBatch(xs, d, out)
				for i, v := range out {
					x := xs[i*d : (i+1)*d]
					want := math.Float64bits(m.scoreRef(x))
					if got := math.Float64bits(v); got != want {
						t.Fatalf("%s row %d: ScoreBatch %#x, per-row reference %#x", name, i, got, want)
					}
					if got := math.Float64bits(m.Score(x)); got != want {
						t.Fatalf("%s row %d: Score %#x, per-row reference %#x", name, i, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkScoreBatch scores 150 rows, one stream_heavy segment, through a
// network of the benchmark's DNN PP shape (32→128→64→1). Weights and inputs
// are normal draws: no subnormals, which cost either kernel microcode
// assists. mathx.BenchmarkKernels compares the AVX2 and portable kernels.
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
	for i := 0; i < b.N; i++ {
		m.ScoreBatch(xs, d, out)
	}
}
