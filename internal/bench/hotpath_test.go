package bench

import (
	"testing"

	"probpred/internal/engine"
)

// The hot-path benchmarks time one full pass over the scoring set per
// iteration, scalar versus batch, per approach. CI runs them at
// -benchtime=1x as a smoke test; locally run with -benchtime=... for real
// numbers.

func benchmarkScore(b *testing.B, spec hotpathSpec) {
	pp, blobs, err := hotpathPP(spec, 600, 2048, 42)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float64, len(blobs))
	b.Run("scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, bl := range blobs {
				out[j] = pp.Score(bl)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pp.ScoreBatch(blobs, out)
		}
	})
}

func BenchmarkPPScoreFHSVM(b *testing.B)  { benchmarkScore(b, hotpathSpec{"FH+SVM", 2000}) }
func BenchmarkPPScorePCAKDE(b *testing.B) { benchmarkScore(b, hotpathSpec{"PCA+KDE", 64}) }
func BenchmarkPPScoreDNN(b *testing.B)    { benchmarkScore(b, hotpathSpec{"DNN", 64}) }

// BenchmarkPPFilterParallel times the PPFilter operator end to end under
// Workers=4 (one TestBatch per worker chunk).
func BenchmarkPPFilterParallel(b *testing.B) {
	pp, blobs, err := hotpathPP(hotpathSpec{"FH+SVM", 2000}, 600, 2048, 42)
	if err != nil {
		b.Fatal(err)
	}
	plan := engine.Plan{Ops: []engine.Operator{
		&engine.Scan{Blobs: blobs},
		&engine.PPFilter{F: &hotpathFilter{pp: pp, th: pp.Threshold(0.95), cost: pp.Cost()}},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(plan, engine.Config{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
