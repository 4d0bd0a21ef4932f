package adapt

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"probpred/internal/blob"
	"probpred/internal/core"
	"probpred/internal/dimred"
	"probpred/internal/engine"
	"probpred/internal/mathx"
	"probpred/internal/metrics"
	"probpred/internal/obs"
	"probpred/internal/online"
	"probpred/internal/optimizer"
	"probpred/internal/query"
)

// Mini traffic harness (the optimizer/serve test scheme): dense features
// encode ground-truth attributes, so PP outcomes and drift are fully
// controlled.

const (
	fType  = 0
	fColor = 1
	fSpeed = 2
	fNoise = 3
)

var (
	miniTypes  = []string{"sedan", "SUV", "truck", "van"}
	miniColors = []string{"white", "black", "silver", "red", "other"}
)

func miniBlobs(n int, seed uint64) []blob.Blob {
	rng := mathx.NewRNG(seed)
	out := make([]blob.Blob, n)
	for i := range out {
		t := rng.Choice([]float64{0.45, 0.25, 0.14, 0.16})
		c := rng.Choice([]float64{0.33, 0.25, 0.20, 0.12, 0.10})
		s := mathx.Clamp(40+rng.NormFloat64()*15, 0, 80)
		out[i] = blob.FromDense(i, mathx.Vec{float64(t), float64(c), s, rng.NormFloat64()})
	}
	return out
}

// driftBlobs inverts the validation statistics: nearly everything is red
// (the rare color) and only every tenth blob is an SUV, so the planned
// "red first" short-circuit order becomes the expensive one.
func driftBlobs(n int) []blob.Blob {
	out := make([]blob.Blob, n)
	for i := range out {
		typ := 0.0 // sedan
		if i%10 == 0 {
			typ = 1 // SUV
		}
		out[i] = blob.FromDense(i, mathx.Vec{typ, 3 /* red */, 40, 0})
	}
	return out
}

func miniLookup(b blob.Blob) query.Lookup {
	return func(col string) (query.Value, bool) {
		switch col {
		case "t":
			return query.Str(miniTypes[int(b.Dense[fType])]), true
		case "c":
			return query.Str(miniColors[int(b.Dense[fColor])]), true
		case "s":
			return query.Number(b.Dense[fSpeed]), true
		}
		return query.Value{}, false
	}
}

type exactScorer struct {
	dim  int
	want float64
}

func (s exactScorer) Score(x mathx.Vec) float64 {
	if x[s.dim] == s.want {
		return 1
	}
	return -1
}
func (s exactScorer) Name() string  { return "exact" }
func (s exactScorer) Cost() float64 { return 1.0 }

func miniCorpus(t *testing.T, val []blob.Blob) *optimizer.Corpus {
	t.Helper()
	c := optimizer.NewCorpus()
	id := dimred.Identity{Dim: 4}
	add := func(clause string, dim int, want float64) {
		p := query.MustParse(clause)
		var set blob.Set
		for _, b := range val {
			ok, err := p.Eval(miniLookup(b))
			if err != nil {
				t.Fatalf("labeling %q: %v", clause, err)
			}
			set.Append(b, ok)
		}
		pp, err := core.NewPP(clause, "test", id, exactScorer{dim: dim, want: want}, set)
		if err != nil {
			t.Fatalf("building %q: %v", clause, err)
		}
		c.Add(pp)
	}
	for i, typ := range miniTypes {
		add("t="+typ, fType, float64(i))
	}
	for i, col := range miniColors {
		add("c="+col, fColor, float64(i))
	}
	return c
}

// miniUDF materializes t/c columns from the encoded features.
type miniUDF struct{}

func (miniUDF) Name() string  { return "miniUDF" }
func (miniUDF) Cost() float64 { return 50 }
func (miniUDF) ApplyBatch(in, out []engine.Row) ([]engine.Row, error) {
	for _, r := range in {
		lk := miniLookup(r.Blob)
		for _, col := range []string{"t", "c"} {
			v, _ := lk(col)
			r = r.With(col, v)
		}
		out = append(out, r)
	}
	return out, nil
}

// fixture is one drifted query: an optimized two-PP conjunction whose
// planned short-circuit order is wrong for the stream the plan scans.
type fixture struct {
	opt  *optimizer.Optimizer
	dec  *optimizer.Decision
	plan engine.Plan
}

func newFixture(t *testing.T, streamRows int) *fixture {
	t.Helper()
	o := optimizer.New(miniCorpus(t, miniBlobs(600, 11)))
	dec, err := o.Optimize(query.MustParse("t=SUV & c=red"), optimizer.Options{Accuracy: 1, UDFCost: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Inject || dec.NumPPs != 2 {
		t.Fatalf("want a two-PP injection, got inject=%v pps=%d", dec.Inject, dec.NumPPs)
	}
	return &fixture{
		opt: o,
		dec: dec,
		plan: engine.Plan{Ops: []engine.Operator{
			&engine.Scan{Blobs: driftBlobs(streamRows)},
			&engine.PPFilter{F: dec.Filter},
			&engine.Process{P: miniUDF{}},
			&engine.Select{Pred: query.MustParse("t=SUV & c=red")},
		}},
	}
}

func (f *fixture) reopt() ReoptFunc {
	return func(c *optimizer.Compiled, minRows uint64) (*optimizer.Reoptimized, error) {
		return f.opt.Reoptimize(c, minRows, nil)
	}
}

func renderRows(rows []engine.Row) string {
	var sb strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&sb, "%d:%v;", r.Blob.ID, r.Columns())
	}
	return sb.String()
}

// recCache records demote/promote calls; a stand-in for the serve plan cache.
type recCache struct {
	mu       sync.Mutex
	demoted  []string
	promoted []string
	lastRe   *optimizer.Reoptimized
}

func (c *recCache) DemotePlan(key string) {
	c.mu.Lock()
	c.demoted = append(c.demoted, key)
	c.mu.Unlock()
}
func (c *recCache) PromotePlan(key string, re *optimizer.Reoptimized) {
	c.mu.Lock()
	c.promoted = append(c.promoted, key)
	c.lastRe = re
	c.mu.Unlock()
}

// replanRow returns the ledger row every Controller result ends with.
func replanRow(t *testing.T, res *engine.Result) engine.OpStats {
	t.Helper()
	last := res.PerOp[len(res.PerOp)-1]
	if last.Name != ReplanOp {
		t.Fatalf("last PerOp row is %q, want %s", last.Name, ReplanOp)
	}
	return last
}

// checkLedger: PerOp, re-plan row included, accounts for the whole
// ClusterTime (chunked accumulation reorders float additions, hence the
// relative tolerance), and cardinalities chain through the plan's operators.
func checkLedger(t *testing.T, res *engine.Result) {
	t.Helper()
	sum := 0.0
	for _, op := range res.PerOp {
		sum += op.Cost
	}
	if math.Abs(sum-res.ClusterTime) > 1e-9*res.ClusterTime {
		t.Errorf("sum(PerOp.Cost) = %v, ClusterTime = %v", sum, res.ClusterTime)
	}
	ops := res.PerOp[:len(res.PerOp)-1]
	for i := 1; i < len(ops); i++ {
		if ops[i].RowsIn != ops[i-1].RowsOut {
			t.Errorf("PerOp[%d] %s: %d rows in, predecessor produced %d", i, ops[i].Name, ops[i].RowsIn, ops[i-1].RowsOut)
		}
	}
	if ops[len(ops)-1].RowsOut != len(res.Rows) {
		t.Errorf("last operator produced %d rows, result has %d", ops[len(ops)-1].RowsOut, len(res.Rows))
	}
}

// The determinism golden: under drift the controller swaps mid-run, yet the
// output rows stay byte-identical to the non-adaptive run — at one worker
// and four — and the adaptive virtual cost (replan charge included) is
// strictly lower. Adaptive runs at different worker counts also agree with
// each other exactly, swaps and accounting included, because probe counts at
// chunk boundaries are order-independent sums.
func TestAdaptiveDeterminismGoldenUnderDrift(t *testing.T) {
	fx := newFixture(t, 2000)
	plain, err := engine.Run(fx.plan, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := renderRows(plain.Rows)

	var golden *engine.Result
	for _, workers := range []int{1, 4} {
		col := obs.NewCollector()
		reg := metrics.New()
		ctl := New(Config{ChunkRows: 256, Metrics: reg, Obs: obs.New(col)})
		cache := &recCache{}
		res, rep, err := ctl.Run(fx.plan, engine.Config{Workers: workers}, RunSpec{
			Key:   "q1",
			Reopt: fx.reopt(),
			Cache: cache,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Adapted || rep.Pinned {
			t.Fatalf("workers=%d: run not adaptive: %+v", workers, rep)
		}
		if got := renderRows(res.Rows); got != want {
			t.Fatalf("workers=%d: adaptive rows diverged from non-adaptive run", workers)
		}
		if len(rep.Swaps) == 0 {
			t.Fatalf("workers=%d: drift produced no swap (max divergence %v)", workers, rep.MaxDivergence)
		}
		if res.ClusterTime >= plain.ClusterTime {
			t.Fatalf("workers=%d: adaptive cost %v not below non-adaptive %v", workers, res.ClusterTime, plain.ClusterTime)
		}
		if rep.ReplanVMS == 0 || replanRow(t, res).Cost != rep.ReplanVMS {
			t.Fatalf("workers=%d: replan cost not charged: rep=%v op=%+v", workers, rep.ReplanVMS, replanRow(t, res))
		}
		checkLedger(t, res)
		if rep.FinalExpr == fx.dec.Filter.Name() {
			t.Fatalf("workers=%d: final expr %q did not change", workers, rep.FinalExpr)
		}
		// The serve cache saw the stale entry demoted and the corrected plan
		// promoted.
		if len(cache.demoted) == 0 || len(cache.promoted) == 0 || cache.lastRe == nil || !cache.lastRe.Changed {
			t.Fatalf("workers=%d: cache not maintained: demoted=%v promoted=%v", workers, cache.demoted, cache.promoted)
		}
		// Telemetry: the swap event (the flight-recorder trigger) and counters.
		var swapEvents int
		for _, ev := range col.Events() {
			if ev.Name == "adapt.swap" {
				swapEvents++
			}
		}
		if swapEvents != len(rep.Swaps) {
			t.Fatalf("workers=%d: swap events %d != swaps %d", workers, swapEvents, len(rep.Swaps))
		}
		if v := reg.Counter("adapt_swaps_total", "").Value(); v != float64(len(rep.Swaps)) {
			t.Fatalf("workers=%d: adapt_swaps_total = %v, want %d", workers, v, len(rep.Swaps))
		}
		// Worker counts must agree with each other exactly.
		if golden == nil {
			golden = res
		} else if renderRows(golden.Rows) != renderRows(res.Rows) ||
			golden.ClusterTime != res.ClusterTime || len(golden.Swaps) != len(res.Swaps) {
			t.Fatalf("adaptive runs diverged across worker counts: cluster %v/%v swaps %d/%d",
				golden.ClusterTime, res.ClusterTime, len(golden.Swaps), len(res.Swaps))
		}
	}
}

// A stream matching the plan's statistics never arms a re-plan: accounting is
// identical to the plain run, to the last virtual millisecond.
func TestAdaptiveStableWithoutDrift(t *testing.T) {
	fx := newFixture(t, 0)
	fx.plan.Ops[0] = &engine.Scan{Blobs: miniBlobs(1500, 11)}
	plain, err := engine.Run(fx.plan, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctl := New(Config{ChunkRows: 256})
	res, rep, err := ctl.Run(fx.plan, engine.Config{}, RunSpec{Key: "q1", Reopt: fx.reopt()})
	if err != nil {
		t.Fatal(err)
	}
	if renderRows(res.Rows) != renderRows(plain.Rows) {
		t.Fatal("stable stream: rows diverged")
	}
	if math.Abs(res.ClusterTime-plain.ClusterTime) > 1e-6 {
		t.Fatalf("stable stream: cost diverged %v vs %v", res.ClusterTime, plain.ClusterTime)
	}
	if len(rep.Swaps) != 0 || rep.Replans != 0 {
		t.Fatalf("stable stream adapted: %+v", rep)
	}
	// The re-plan row is there, at zero: the PerOp shape does not depend on
	// whether this run happened to re-plan.
	if replanRow(t, res).Cost != 0 {
		t.Fatalf("stable stream charged re-planning: %+v", replanRow(t, res))
	}
	checkLedger(t, res)
}

// Graceful degradation: a re-optimizer that always fails leaves the run on
// its original plan with identical results; after K failures the breaker
// trips, pinning subsequent runs, and probation after the jittered backoff
// risks exactly one more re-plan.
func TestReplanFailureDegradesAndTripsBreaker(t *testing.T) {
	fx := newFixture(t, 2000)
	plain, err := engine.Run(fx.plan, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	col := obs.NewCollector()
	ctl := New(Config{
		ChunkRows: 256,
		Breaker:   online.BreakerConfig{K: 2, Backoff: 2},
		Obs:       obs.New(col),
	})
	boom := func(*optimizer.Compiled, uint64) (*optimizer.Reoptimized, error) {
		return nil, errors.New("reopt exploded")
	}
	spec := RunSpec{Key: "q1", Reopt: boom}

	res, rep, err := ctl.Run(fx.plan, engine.Config{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if renderRows(res.Rows) != renderRows(plain.Rows) {
		t.Fatal("failed re-plans changed results")
	}
	if rep.ReplanFailures < 2 || len(rep.Swaps) != 0 {
		t.Fatalf("want >=2 absorbed failures and no swaps, got %+v", rep)
	}
	if rep.Breaker != online.BreakerOpen || ctl.Trips() != 1 {
		t.Fatalf("breaker after K failures: state=%v trips=%d", rep.Breaker, ctl.Trips())
	}
	// Failed re-plans are not modeled work that ran: nothing extra charged
	// beyond the attempts' budget, and the run itself completed.
	if replanRow(t, res).Cost != rep.ReplanVMS {
		t.Fatalf("replan charge mismatch: %+v vs %v", replanRow(t, res), rep.ReplanVMS)
	}
	checkLedger(t, res)

	// The next run is pinned: the open breaker's backoff has not elapsed.
	res2, rep2, err := ctl.Run(fx.plan, engine.Config{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Pinned || rep2.Replans != 0 {
		t.Fatalf("run after trip not pinned: %+v", rep2)
	}
	if len(res2.PerOp) != len(res.PerOp) || replanRow(t, res2).Cost != 0 {
		t.Fatalf("pinned run's ledger shape differs from the adaptive run's: %+v", res2.PerOp)
	}
	checkLedger(t, res2)

	// Backoff (2 ticks + jitter <=1) elapses within a few runs; the probation
	// run risks re-planning again, fails, and re-trips with doubled backoff.
	probed := false
	for i := 0; i < 6 && !probed; i++ {
		_, repN, err := ctl.Run(fx.plan, engine.Config{}, spec)
		if err != nil {
			t.Fatal(err)
		}
		if repN.Pinned {
			continue
		}
		probed = true
		if repN.ReplanFailures == 0 || repN.Breaker != online.BreakerOpen {
			t.Fatalf("probation run did not re-trip: %+v", repN)
		}
	}
	if !probed {
		t.Fatal("breaker never granted probation within the backoff window")
	}
	if ctl.Trips() != 2 {
		t.Fatalf("trips = %d, want 2", ctl.Trips())
	}
	var trips, probations int
	for _, ev := range col.Events() {
		switch ev.Name {
		case "adapt.breaker_trip":
			trips++
		case "adapt.breaker_probation":
			probations++
		}
	}
	if trips != 2 || probations != 1 {
		t.Fatalf("breaker events: trips=%d probations=%d, want 2 and 1", trips, probations)
	}
}

// The virtual-time budget bounds re-planning: once exhausted, further armed
// attempts are skipped (and counted) while the query runs on.
func TestReplanBudgetBoundsAttempts(t *testing.T) {
	fx := newFixture(t, 2000)
	plain, err := engine.Run(fx.plan, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A re-optimizer that inspects but never changes the order: divergence
	// stays high, so the controller keeps re-arming until the budget stops it.
	keep := func(c *optimizer.Compiled, _ uint64) (*optimizer.Reoptimized, error) {
		return &optimizer.Reoptimized{Filter: c, Expr: c.Name()}, nil
	}
	ctl := New(Config{ChunkRows: 256, ReplanCostVMS: 5, MaxReplanVMS: 5})
	res, rep, err := ctl.Run(fx.plan, engine.Config{}, RunSpec{Key: "q1", Reopt: keep})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replans != 1 || rep.BudgetSkips == 0 {
		t.Fatalf("budget did not bound attempts: %+v", rep)
	}
	if rep.Breaker != online.BreakerClosed {
		t.Fatalf("successful no-op re-plans tripped the breaker: %v", rep.Breaker)
	}
	// Chunked summation may associate differently than the single-shot run;
	// only the budgeted charge separates the totals.
	if want := plain.ClusterTime + 5; math.Abs(res.ClusterTime-want) > 1e-6 {
		t.Fatalf("cluster time %v, want plain+budgeted charge %v", res.ClusterTime, want)
	}
}

// plainFilter is a BlobFilter the controller cannot re-order.
type plainFilter struct{}

func (plainFilter) Name() string { return "plain" }
func (plainFilter) TestBatch(blobs []blob.Blob, pass []bool, cost []float64, _ *engine.CacheTally) {
	for i := range blobs {
		pass[i], cost[i] = true, 0.5
	}
}

// Plans without a compiled PP expression (or without a re-optimizer) run
// unadapted, untouched.
func TestRunFallsBackWithoutCompiledFilter(t *testing.T) {
	fx := newFixture(t, 200)
	opaque := fx.plan
	opaque.Ops = append([]engine.Operator(nil), fx.plan.Ops...)
	opaque.Ops[1] = &engine.PPFilter{F: plainFilter{}}
	ctl := New(Config{ChunkRows: 64})

	res, rep, err := ctl.Run(opaque, engine.Config{}, RunSpec{Key: "q1", Reopt: fx.reopt()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Adapted || res.Chunks != 0 {
		t.Fatalf("opaque filter adapted: %+v chunks=%d", rep, res.Chunks)
	}

	res, rep, err = ctl.Run(fx.plan, engine.Config{}, RunSpec{Key: "q1"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Adapted || res.Chunks != 0 {
		t.Fatalf("nil Reopt adapted: %+v chunks=%d", rep, res.Chunks)
	}
}

// MaxSwaps caps hot-swaps per run even under sustained divergence.
func TestMaxSwapsBoundsSwapsPerRun(t *testing.T) {
	fx := newFixture(t, 2000)
	// A flip-flopping re-optimizer: every call claims a change back and forth,
	// which unbounded would thrash the plan every HysteresisChunks chunks.
	flip := func(c *optimizer.Compiled, minRows uint64) (*optimizer.Reoptimized, error) {
		return &optimizer.Reoptimized{Filter: c, Changed: true, Expr: c.Name()}, nil
	}
	ctl := New(Config{ChunkRows: 128, MaxSwaps: 1, MaxReplanVMS: 1000})
	_, rep, err := ctl.Run(fx.plan, engine.Config{}, RunSpec{Key: "q1", Reopt: flip})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Swaps) != 1 {
		t.Fatalf("swaps = %d, want capped at 1", len(rep.Swaps))
	}
}
