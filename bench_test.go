package probpred

// One benchmark per paper table/figure (regenerating it end-to-end via the
// experiment harness), plus micro-benchmarks of the primitives that back
// Table 2's complexity claims and Table 5's latency measurements.
//
// The experiment benchmarks run the harness at its quick scale so that
// `go test -bench=.` completes in minutes; `cmd/ppbench` runs the full
// scale and prints the regenerated tables (recorded in EXPERIMENTS.md).

import (
	"testing"

	"probpred/internal/bench"
	"probpred/internal/blob"
	"probpred/internal/core"
	"probpred/internal/data"
	"probpred/internal/dnn"
	"probpred/internal/kde"
	"probpred/internal/mathx"
	"probpred/internal/optimizer"
	"probpred/internal/query"
	"probpred/internal/svm"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := bench.Config{Seed: 42, Quick: true}
	for i := 0; i < b.N; i++ {
		rep, err := bench.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Lines) == 0 {
			b.Fatalf("%s: empty report", id)
		}
	}
}

// BenchmarkFig9 regenerates Figure 9 (reduction whiskers per dataset).
func BenchmarkFig9(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkTable4 regenerates Table 4 (reduction by approach & accuracy).
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkTable5 regenerates Table 5 (train/test latency, optimality).
func BenchmarkTable5(b *testing.B) { benchExperiment(b, "table5") }

// BenchmarkTable6 regenerates Table 6 (PP vs Joglekar et al.).
func BenchmarkTable6(b *testing.B) { benchExperiment(b, "table6") }

// BenchmarkFig10 regenerates Figure 10 (TRAF-20 speed-ups vs NoP/SortP).
func BenchmarkFig10(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkTable8 regenerates Table 8 (latency vs input size).
func BenchmarkTable8(b *testing.B) { benchExperiment(b, "table8") }

// BenchmarkTable9 regenerates Table 9 (training/inference overheads).
func BenchmarkTable9(b *testing.B) { benchExperiment(b, "table9") }

// BenchmarkTable10 regenerates Table 10 (QO plan exploration).
func BenchmarkTable10(b *testing.B) { benchExperiment(b, "table10") }

// BenchmarkTable12 regenerates Table 12 (video cascades, Appendix B).
func BenchmarkTable12(b *testing.B) { benchExperiment(b, "table12") }

// BenchmarkTable13 regenerates Table 13 (training-set size sweep).
func BenchmarkTable13(b *testing.B) { benchExperiment(b, "table13") }

// BenchmarkFig15 regenerates the Figure 15/16 confidence demonstration.
func BenchmarkFig15(b *testing.B) { benchExperiment(b, "fig15") }

// --- Primitive micro-benchmarks (Table 2 / Table 5 empirical backing) ---

func randomDense(n, dim int, seed uint64) ([]mathx.Vec, []bool) {
	rng := mathx.NewRNG(seed)
	xs := make([]mathx.Vec, n)
	ys := make([]bool, n)
	for i := range xs {
		v := make(mathx.Vec, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		xs[i] = v
		ys[i] = v[0]+v[1] > 0
	}
	return xs, ys
}

// BenchmarkSVMTrain measures Pegasos training (near-linear in n·d, Table 2).
func BenchmarkSVMTrain(b *testing.B) {
	xs, ys := randomDense(1000, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svm.Train(xs, ys, svm.Config{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSVMScore measures O(d) scoring (Table 2 "Testing per input").
func BenchmarkSVMScore(b *testing.B) {
	xs, ys := randomDense(1000, 64, 2)
	m, err := svm.Train(xs, ys, svm.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Score(xs[i%len(xs)])
	}
}

// BenchmarkKDEScore measures neighbourhood-approximated density scoring
// (O(n′ log n), Table 2).
func BenchmarkKDEScore(b *testing.B) {
	xs, ys := randomDense(2000, 8, 3)
	m, err := kde.Train(xs, ys, kde.Config{Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Score(xs[i%len(xs)])
	}
}

// BenchmarkDNNScore measures one forward pass (O(params), Table 2).
func BenchmarkDNNScore(b *testing.B) {
	xs, ys := randomDense(500, 96, 5)
	m, err := dnn.Train(xs, ys, dnn.Config{Epochs: 3, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Score(xs[i%len(xs)])
	}
}

// BenchmarkPPScoreTraffic measures end-to-end PP filtering throughput on
// traffic blobs (the per-row "PP inf." of Table 9).
func BenchmarkPPScoreTraffic(b *testing.B) {
	blobs := data.Traffic(data.TrafficConfig{Rows: 2000, Seed: 7})
	set, err := data.TrafficSet(blobs, query.MustParse("t=SUV"))
	if err != nil {
		b.Fatal(err)
	}
	train, val, _ := set.Split(mathx.NewRNG(8), 0.6, 0.2)
	pp, err := core.Train("t=SUV", train, val, core.TrainConfig{Approach: "Raw+SVM", Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	th := pp.Threshold(0.95)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pp.Score(blobs[i%len(blobs)]) >= th
	}
}

// BenchmarkOptimize measures QO time per query (the paper reports 80-100 ms
// to translate predicates into parametrized PP expressions, §8.2).
func BenchmarkOptimize(b *testing.B) {
	blobs := data.Traffic(data.TrafficConfig{Rows: 1500, Seed: 10})
	corpus := optimizer.NewCorpus()
	for i, clause := range []string{"t=SUV", "t=van", "c=red", "c=white", "s>60", "s<65"} {
		pred := query.MustParse(clause)
		set, err := data.TrafficSet(blobs, pred)
		if err != nil {
			b.Fatal(err)
		}
		train, val, _ := set.Split(mathx.NewRNG(uint64(i)), 0.8, 0.2)
		pp, err := core.Train(clause, train, val, core.TrainConfig{Approach: "Raw+SVM", Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		corpus.Add(pp)
	}
	opt := optimizer.New(corpus)
	pred := query.MustParse("(t=SUV | t=van) & c!=white & s>60 & s<65")
	opts := optimizer.Options{Accuracy: 0.95, UDFCost: 100, Domains: data.TrafficDomains()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := opt.Optimize(pred, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineThroughput measures engine rows/sec with a PP filter.
func BenchmarkEngineThroughput(b *testing.B) {
	blobs := data.Traffic(data.TrafficConfig{Rows: 2000, Seed: 11})
	pred := query.MustParse("t=SUV")
	var fixture blob.Set
	fixture, err := data.TrafficSet(blobs, pred)
	if err != nil {
		b.Fatal(err)
	}
	train, val, _ := fixture.Split(mathx.NewRNG(12), 0.6, 0.2)
	pp, err := core.Train("t=SUV", train, val, core.TrainConfig{Approach: "Raw+SVM", Seed: 13})
	if err != nil {
		b.Fatal(err)
	}
	corpus := NewCorpus()
	corpus.Add(pp)
	dec, err := NewOptimizer(corpus).Optimize(pred, OptimizeOptions{Accuracy: 0.95, UDFCost: 40})
	if err != nil {
		b.Fatal(err)
	}
	procs := []Processor{fakeCostProc{}}
	plan := BuildPlan(blobs, dec, procs, pred)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunPlan(plan, ExecConfig{}); err != nil {
			b.Fatal(err)
		}
	}
}

// fakeCostProc materializes the t column from ground truth at a declared
// cost, standing in for the expensive classifier.
type fakeCostProc struct{}

func (fakeCostProc) Name() string  { return "TypeClassifier" }
func (fakeCostProc) Cost() float64 { return 40 }
func (fakeCostProc) Apply(b Batch) error {
	vals := b.Column("t")
	for i := range vals {
		v, err := data.TrafficValue(b.Blob(i), "t")
		if err != nil {
			return &RowError{Index: i, Err: err}
		}
		vals[i] = v
	}
	return nil
}

// BenchmarkAblationBudget regenerates the budget-allocation ablation.
func BenchmarkAblationBudget(b *testing.B) { benchExperiment(b, "ablation-budget") }

// BenchmarkAblationOrder regenerates the execution-order ablation.
func BenchmarkAblationOrder(b *testing.B) { benchExperiment(b, "ablation-order") }

// BenchmarkAblationK regenerates the k-bound ablation.
func BenchmarkAblationK(b *testing.B) { benchExperiment(b, "ablation-k") }

// BenchmarkAblationModel regenerates the model-selection ablation.
func BenchmarkAblationModel(b *testing.B) { benchExperiment(b, "ablation-model") }

// BenchmarkCoverage regenerates the ad-hoc predicate coverage experiment.
func BenchmarkCoverage(b *testing.B) { benchExperiment(b, "coverage") }

// BenchmarkTable2 regenerates the empirical complexity-scaling table.
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable7 regenerates the TRAF-20 workload characterization.
func BenchmarkTable7(b *testing.B) { benchExperiment(b, "table7") }

// BenchmarkDrift regenerates the drift/recalibration extension experiment.
func BenchmarkDrift(b *testing.B) { benchExperiment(b, "drift") }
