package adapt

import (
	"errors"
	"math"
	"sync"
	"testing"

	"probpred/internal/blob"
	"probpred/internal/engine"
	"probpred/internal/metrics"
	"probpred/internal/obs"
	"probpred/internal/online"
	"probpred/internal/optimizer"
	"probpred/internal/query"
	"probpred/internal/testkit"
)

// fixture is one query, t=SUV & c=red, optimized into a two-PP conjunction
// over the kit's PPs and planned over the given blobs; over
// testkit.DriftBlobs its short-circuit order is the wrong one.
type fixture struct {
	opt  *optimizer.Optimizer
	dec  *optimizer.Decision
	plan engine.Plan
}

func newFixture(t *testing.T, blobs []blob.Blob) *fixture {
	t.Helper()
	c := optimizer.NewCorpus()
	for _, pp := range testkit.PPs(t, testkit.Blobs(600, 11)) {
		c.Add(pp)
	}
	o := optimizer.New(c)
	pred := query.MustParse("t=SUV & c=red")
	dec, err := o.Optimize(pred, optimizer.Options{Accuracy: 1, UDFCost: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Inject || dec.NumPPs != 2 {
		t.Fatalf("want a two-PP injection, got inject=%v pps=%d", dec.Inject, dec.NumPPs)
	}
	plan, err := testkit.Builder{UDF: testkit.UDF(50)}.BuildOver(blobs, pred, dec.Filter)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{opt: o, dec: dec, plan: plan}
}

func (f *fixture) reopt() ReoptFunc {
	return func(c *optimizer.Compiled, minRows uint64) (*optimizer.Reoptimized, error) {
		return f.opt.Reoptimize(c, minRows, nil)
	}
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

// The determinism golden: under drift the controller swaps mid-run, yet the
// output rows stay byte-identical to the non-adaptive run — at one worker
// and four — and the adaptive virtual cost (replan charge included) is
// strictly lower. Adaptive runs at different worker counts also agree with
// each other exactly, swaps and accounting included, because probe counts at
// chunk boundaries are order-independent sums.
func TestAdaptiveDeterminismGoldenUnderDrift(t *testing.T) {
	fx := newFixture(t, testkit.DriftBlobs(2000))
	plain, err := engine.Run(fx.plan, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := testkit.RenderRows(plain.Rows)

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
		if got := testkit.RenderRows(res.Rows); got != want {
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
		testkit.CheckLedger(t, "ledger", res, ReplanOp)
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
		} else if testkit.RenderRows(golden.Rows) != testkit.RenderRows(res.Rows) ||
			golden.ClusterTime != res.ClusterTime || len(golden.Swaps) != len(res.Swaps) {
			t.Fatalf("adaptive runs diverged across worker counts: cluster %v/%v swaps %d/%d",
				golden.ClusterTime, res.ClusterTime, len(golden.Swaps), len(res.Swaps))
		}
	}
}

// A stream matching the plan's statistics never arms a re-plan: accounting is
// identical to the plain run, to the last virtual millisecond.
func TestAdaptiveStableWithoutDrift(t *testing.T) {
	fx := newFixture(t, testkit.Blobs(1500, 11))
	plain, err := engine.Run(fx.plan, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctl := New(Config{ChunkRows: 256})
	res, rep, err := ctl.Run(fx.plan, engine.Config{}, RunSpec{Key: "q1", Reopt: fx.reopt()})
	if err != nil {
		t.Fatal(err)
	}
	if testkit.RenderRows(res.Rows) != testkit.RenderRows(plain.Rows) {
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
	testkit.CheckLedger(t, "ledger", res, ReplanOp)
}

// Graceful degradation: a re-optimizer that always fails leaves the run on
// its original plan with identical results; after K failures the breaker
// trips, pinning subsequent runs, and probation after the jittered backoff
// risks exactly one more re-plan.
func TestReplanFailureDegradesAndTripsBreaker(t *testing.T) {
	fx := newFixture(t, testkit.DriftBlobs(2000))
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
	if testkit.RenderRows(res.Rows) != testkit.RenderRows(plain.Rows) {
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
	testkit.CheckLedger(t, "ledger", res, ReplanOp)

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
	testkit.CheckLedger(t, "ledger", res2, ReplanOp)

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
	fx := newFixture(t, testkit.DriftBlobs(2000))
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
	fx := newFixture(t, testkit.DriftBlobs(200))
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
	fx := newFixture(t, testkit.DriftBlobs(2000))
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
