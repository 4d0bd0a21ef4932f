package bench

import (
	"testing"

	"probpred/internal/blob"
	"probpred/internal/core"
	"probpred/internal/engine"
	"probpred/internal/mathx"
)

// The hot-path benchmarks time one full pass over the scoring set per
// iteration, scalar versus batch, per approach. CI runs them at
// -benchtime=1x as a smoke test; locally run with -benchtime=... for real
// numbers. The numbers a PR is judged on are the benchmark/ metrics
// core.score_ns_per_row.{svm,kde,dnn} and core.score_mallocs_per_row.

// hotpathSet generates n dense gaussian blobs of dimension dim, labeled by a
// random hyperplane (selectivity ≈ 0.5) so every classifier family has
// structure to learn.
func hotpathSet(n, dim int, seed uint64) blob.Set {
	rng := mathx.NewRNG(seed)
	w := make(mathx.Vec, dim)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	var set blob.Set
	for i := 0; i < n; i++ {
		v := make(mathx.Vec, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		set.Append(blob.FromDense(i, v), mathx.Dot(w, v) >= 0)
	}
	return set
}

// hotpathSpec is one approach × input dimensionality. FH+SVM runs at the
// LSHTC-like vocabulary dimensionality (data.LSHTCConfig defaults to 2000) —
// the high-dimensional regime feature hashing exists for; the heavier
// families use smaller inputs so the benchmarks stay fast.
type hotpathSpec struct {
	approach string
	dim      int
}

var hotpathFHSVM = hotpathSpec{"FH+SVM", 2000}

// hotpathPP trains one PP for a spec and generates the larger scoring set
// from the same distribution.
func hotpathPP(b *testing.B, spec hotpathSpec) (*core.PP, []blob.Blob) {
	const trainN, scoreN, seed = 600, 2048, 42
	set := hotpathSet(trainN, spec.dim, seed^uint64(spec.dim)*0x51)
	rng := mathx.NewRNG(seed ^ 0x407)
	train, val, _ := set.Split(rng, 0.7, 0.3)
	cfg := core.TrainConfig{Approach: spec.approach, Seed: seed}
	if spec.approach == "DNN" {
		cfg.DNN.Epochs = 10 // scoring speed, not quality, is under test
	}
	pp, err := core.Train("hotpath."+spec.approach, train, val, cfg)
	if err != nil {
		b.Fatalf("hotpath training %s: %v", spec.approach, err)
	}
	return pp, hotpathSet(scoreN, spec.dim, seed^0xbeef).Blobs
}

// hotpathFilter adapts a PP at a fixed accuracy to engine.BlobFilter, like
// optimizer.Compiled's single-leaf case.
type hotpathFilter struct {
	pp   *core.PP
	th   float64
	cost float64
}

func (f *hotpathFilter) Name() string { return f.pp.Clause }

func (f *hotpathFilter) TestBatch(blobs []blob.Blob, pass []bool, cost []float64, _ *engine.CacheTally) {
	scores := make([]float64, len(blobs))
	f.pp.ScoreBatch(blobs, scores)
	for i, s := range scores {
		pass[i] = s >= f.th
		cost[i] = f.cost
	}
}

func benchmarkScore(b *testing.B, spec hotpathSpec) {
	pp, blobs := hotpathPP(b, spec)
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

func BenchmarkPPScoreFHSVM(b *testing.B)  { benchmarkScore(b, hotpathFHSVM) }
func BenchmarkPPScorePCAKDE(b *testing.B) { benchmarkScore(b, hotpathSpec{"PCA+KDE", 64}) }
func BenchmarkPPScoreDNN(b *testing.B)    { benchmarkScore(b, hotpathSpec{"DNN", 64}) }

// BenchmarkPPFilterRun times the PPFilter operator end to end (Scan +
// PPFilter under engine.Run, one TestBatch over the scan).
func BenchmarkPPFilterRun(b *testing.B) {
	pp, blobs := hotpathPP(b, hotpathFHSVM)
	plan := engine.Plan{Ops: []engine.Operator{
		&engine.Scan{Blobs: blobs},
		&engine.PPFilter{F: &hotpathFilter{pp: pp, th: pp.Threshold(0.95), cost: pp.Cost()}},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Run(plan, engine.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
