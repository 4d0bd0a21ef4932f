package baseline

import (
	"testing"

	"probpred/internal/core"
	"probpred/internal/data"
	"probpred/internal/dimred"
	"probpred/internal/engine"
	"probpred/internal/mathx"
	"probpred/internal/query"
	"probpred/internal/udf"
)

// fakeProc is a zero-work processor with a declared cost.
type fakeProc struct {
	name string
	cost float64
}

func (f fakeProc) Name() string             { return f.name }
func (f fakeProc) Cost() float64            { return f.cost }
func (f fakeProc) Apply(engine.Batch) error { return nil }

func TestOrderByRank(t *testing.T) {
	cheapReductive := SortPClause{Pred: query.MustParse("a=1"),
		UDFs: []engine.Processor{fakeProc{"u1", 1}}, PassRate: 0.1}
	expensiveLoose := SortPClause{Pred: query.MustParse("b=1"),
		UDFs: []engine.Processor{fakeProc{"u2", 50}}, PassRate: 0.9}
	ordered := Order([]SortPClause{expensiveLoose, cheapReductive})
	if ordered[0].Pred.String() != "a=1" {
		t.Fatalf("cheap reductive clause should run first, got %s", ordered[0].Pred)
	}
}

func TestOrderDegeneratePassRate(t *testing.T) {
	neverDrops := SortPClause{Pred: query.MustParse("a=1"), PassRate: 1}
	drops := SortPClause{Pred: query.MustParse("b=1"), PassRate: 0.5}
	ordered := Order([]SortPClause{neverDrops, drops})
	if ordered[0].Pred.String() != "b=1" {
		t.Fatal("non-reductive clause must rank last")
	}
}

func TestSortPPlanSavesResourcesButAddsLatency(t *testing.T) {
	blobs := data.Traffic(data.TrafficConfig{Rows: 2000, Seed: 1})
	pred := query.MustParse("s>60 & c=red")
	// NoP plan: all UDFs then the full predicate.
	procs, err := udf.TrafficPipeline(pred, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	nopOps := []engine.Operator{&engine.Scan{Blobs: blobs}}
	for _, p := range procs {
		nopOps = append(nopOps, &engine.Process{P: p})
	}
	nopOps = append(nopOps, &engine.Select{Pred: pred})
	nop, err := engine.Run(engine.Plan{Ops: nopOps}, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}

	// SortP: speed clause (pass ~0.13, cheap UDF) before color clause.
	speedUDF, _ := udf.TrafficUDFFor("s", 0, 3)
	colorUDF, _ := udf.TrafficUDFFor("c", 0, 4)
	plan := Plan(blobs, []engine.Processor{udf.VehDetector{}}, []SortPClause{
		{Pred: query.MustParse("c=red"), UDFs: []engine.Processor{colorUDF}, PassRate: 0.12},
		{Pred: query.MustParse("s>60"), UDFs: []engine.Processor{speedUDF}, PassRate: 0.13},
	})
	sortp, err := engine.Run(plan, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sortp.Rows) != len(nop.Rows) {
		t.Fatalf("SortP changed results: %d vs %d", len(sortp.Rows), len(nop.Rows))
	}
	if sortp.ClusterTime >= nop.ClusterTime {
		t.Fatalf("SortP should save resources: %v vs %v", sortp.ClusterTime, nop.ClusterTime)
	}
	if sortp.Latency <= nop.Latency {
		t.Fatalf("SortP should increase latency (serialized stages): %v vs %v",
			sortp.Latency, nop.Latency)
	}
}

func TestTrainCorrelationErrors(t *testing.T) {
	if _, err := TrainCorrelation(nil, nil, CorrelationConfig{}); err == nil {
		t.Fatal("expected error for empty set")
	}
	if _, err := TrainCorrelation([]mathx.Vec{{1}}, []bool{true, false}, CorrelationConfig{}); err == nil {
		t.Fatal("expected error for mismatch")
	}
	if _, err := TrainCorrelation([]mathx.Vec{{1}, {2}}, []bool{true, true}, CorrelationConfig{}); err == nil {
		t.Fatal("expected error for single class")
	}
}

func TestCorrelationScorerLearnsCorrelatedColumn(t *testing.T) {
	// Column 2 fully determines the label; columns 0, 1 are noise. The
	// scorer must separate the classes.
	rng := mathx.NewRNG(5)
	var xs []mathx.Vec
	var ys []bool
	for i := 0; i < 2000; i++ {
		label := rng.Bernoulli(0.3)
		v := mathx.Vec{rng.NormFloat64(), rng.NormFloat64(), 0}
		if label {
			v[2] = 1 + rng.Float64()
		} else {
			v[2] = -1 - rng.Float64()
		}
		xs = append(xs, v)
		ys = append(ys, label)
	}
	s, err := TrainCorrelation(xs, ys, CorrelationConfig{})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i, x := range xs {
		if (s.Score(x) > 0) == ys[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(xs)); acc < 0.95 {
		t.Fatalf("correlated column not learned: accuracy %v", acc)
	}
	if s.Name() != "Joglekar" || s.Cost() <= 0 {
		t.Fatal("bad metadata")
	}
}

func TestJoglekarWeakOnDenseImageBlobs(t *testing.T) {
	// The paper's key comparison result (Table 6): on dense ML blobs where
	// labels depend on non-linear combinations of dimensions, per-column
	// statistics filter poorly while PPs filter well.
	d := data.UCF101(data.UCFConfig{Clips: 2400, Seed: 6})
	a := 0.95
	var ppSum, jogSum float64
	for cat := 0; cat < 4; cat++ {
		set := d.SetFor(cat)
		rng := mathx.NewRNG(uint64(7 + cat))
		train, val, test := set.Split(rng, 0.6, 0.2)
		jog, err := JoglekarFilter("act", dimred.Identity{Dim: set.Dim()}, train, val,
			CorrelationConfig{})
		if err != nil {
			t.Fatal(err)
		}
		pp, err := core.Train("act", train, val, core.TrainConfig{Approach: "PCA+KDE",
			Seed: uint64(8 + cat)})
		if err != nil {
			t.Fatal(err)
		}
		jogSum += core.Evaluate(jog, test, a).Reduction
		ppSum += core.Evaluate(pp, test, a).Reduction
	}
	if ppSum <= jogSum {
		t.Fatalf("PP (avg r=%v) should beat Joglekar (avg r=%v) on dense video blobs",
			ppSum/4, jogSum/4)
	}
}

func TestJoglekarFilterIsWellFormedPP(t *testing.T) {
	d := data.LSHTC(data.LSHTCConfig{Docs: 1000, Seed: 9})
	set := d.SetFor(1)
	rng := mathx.NewRNG(10)
	train, val, _ := set.Split(rng, 0.6, 0.2)
	jog, err := JoglekarFilter("cat=1", dimred.Identity{Dim: set.Dim()}, train, val,
		CorrelationConfig{TopColumns: 5})
	if err != nil {
		t.Fatal(err)
	}
	if jog.Approach != "Raw+Joglekar" {
		t.Fatalf("approach = %q", jog.Approach)
	}
	if r := jog.Reduction(0.9); r < 0 || r > 1 {
		t.Fatalf("reduction out of range: %v", r)
	}
}

func TestCascadePPPipeline(t *testing.T) {
	v := data.Coral(data.CoralConfig{Frames: 12000, Seed: 11})
	res, err := RunCascade(v, CascadeConfig{
		UseMask: true, UseRelativeBS: true, FilterCost: 1, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames == 0 {
		t.Fatal("no frames evaluated")
	}
	// The stream is >99% empty background; pre-processing must resolve the
	// overwhelming majority of frames (paper: 0.993-0.9997).
	if res.PreProcReduction < 0.9 {
		t.Fatalf("pre-proc reduction = %v, want >= 0.9", res.PreProcReduction)
	}
	if res.Accuracy < 0.95 {
		t.Fatalf("accuracy = %v, want >= 0.95", res.Accuracy)
	}
	// Orders of magnitude speedup over running the DNN on every frame.
	if res.Speedup < 50 {
		t.Fatalf("speedup = %vx, want >= 50x", res.Speedup)
	}
}

func TestCascadeMaskHelpsOnCoral(t *testing.T) {
	v := data.Coral(data.CoralConfig{Frames: 12000, Seed: 13})
	masked, err := RunCascade(v, CascadeConfig{UseMask: true, UseRelativeBS: true, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	unmasked, err := RunCascade(v, CascadeConfig{UseMask: false, UseRelativeBS: true, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	// The irrelevant shimmering region defeats background subtraction when
	// unmasked, so the masked pipeline resolves more frames early.
	if masked.PreProcReduction <= unmasked.PreProcReduction {
		t.Fatalf("mask did not help: %v vs %v", masked.PreProcReduction, unmasked.PreProcReduction)
	}
}

func TestCascadeErrors(t *testing.T) {
	v := data.Coral(data.CoralConfig{Frames: 30, Seed: 15})
	if _, err := RunCascade(v, CascadeConfig{TrainFrames: 29}); err == nil {
		// 29 frames of training on a 30-frame stream likely has one class.
		t.Skip("degenerate stream happened to train")
	}
}

func TestCascadeSquareBusier(t *testing.T) {
	sq := data.Square(data.CoralConfig{Frames: 12000, Seed: 16})
	res, err := RunCascade(sq, CascadeConfig{UseMask: true, UseRelativeBS: true, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	coral := data.Coral(data.CoralConfig{Frames: 12000, Seed: 16})
	cres, err := RunCascade(coral, CascadeConfig{UseMask: true, UseRelativeBS: true, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	// The busier square clip cannot be reduced as aggressively (Table 12:
	// square 0.967 vs coral 0.993+).
	if res.PreProcReduction >= cres.PreProcReduction {
		t.Fatalf("square (%v) should reduce less than coral (%v)",
			res.PreProcReduction, cres.PreProcReduction)
	}
}
