package optimizer

import (
	"testing"

	"probpred/internal/metrics"
	"probpred/internal/obs"
	"probpred/internal/query"
	"probpred/internal/testkit"
)

// optimizeWithMetrics runs one standard mini search with a registry attached.
func optimizeWithMetrics(t *testing.T, reg *metrics.Registry, tr *obs.Tracer) (*Optimizer, *Decision) {
	t.Helper()
	val := testkit.Blobs(2000, 63)
	opt := New(miniCorpus(t, val))
	opt.SetMetrics(reg)
	opt.SetObs(tr)
	dec, err := opt.Optimize(query.MustParse("t=SUV & c=red"), Options{
		Accuracy: 0.95, UDFCost: 100, Domains: testkit.Domains(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Inject {
		t.Fatal("mini scenario should inject a PP filter")
	}
	return opt, dec
}

func TestSearchMetricsFamilies(t *testing.T) {
	reg := metrics.New()
	_, dec := optimizeWithMetrics(t, reg, nil)
	if got := reg.Counter("optimizer_searches_total", "").Value(); got != 1 {
		t.Fatalf("searches = %v, want 1", got)
	}
	if got := reg.Counter("optimizer_injections_total", "").Value(); got != 1 {
		t.Fatalf("injections = %v, want 1", got)
	}
	h := reg.Histogram("optimizer_candidates_costed", "")
	if h.Count() != 1 {
		t.Fatalf("costed observations = %d, want 1", h.Count())
	}
	if h.Sum() != float64(dec.Search.Costed) {
		t.Fatalf("costed sum = %v, want %d", h.Sum(), dec.Search.Costed)
	}
	if reg.Histogram("optimizer_search_wall_ns", "").Count() != 1 {
		t.Fatal("search wall histogram did not record")
	}
}

func TestObserveRuntimeRecordsDrift(t *testing.T) {
	reg := metrics.New()
	col := obs.NewCollector()
	opt, dec := optimizeWithMetrics(t, reg, obs.New(col))

	// In-tolerance observation: gauges update, no misestimation.
	opt.ObserveRuntime(dec, dec.Reduction)
	if got := reg.Counter("optimizer_observations_total", "").Value(); got != 1 {
		t.Fatalf("observations = %v, want 1", got)
	}
	if got := reg.Gauge("optimizer_estimated_reduction", "").Value(); got != dec.Reduction {
		t.Fatalf("estimated gauge = %v, want %v", got, dec.Reduction)
	}
	if got := reg.Counter("optimizer_misestimations_total", "").Value(); got != 0 {
		t.Fatalf("in-tolerance observation misflagged: %v", got)
	}

	// Way-off observation: misestimation counter and obs event fire.
	opt.ObserveRuntime(dec, 0)
	if got := reg.Counter("optimizer_misestimations_total", "").Value(); got != 1 {
		t.Fatalf("misestimations = %v, want 1", got)
	}
	if got := reg.Gauge("optimizer_observed_reduction", "").Value(); got != 0 {
		t.Fatalf("observed gauge = %v, want 0", got)
	}
	if reg.Histogram("optimizer_reduction_error", "").Count() != 2 {
		t.Fatal("reduction error histogram should record every observation")
	}
	var sawEvent bool
	for _, ev := range col.Events() {
		if ev.Name == "optimizer.misestimation" {
			sawEvent = true
		}
	}
	if !sawEvent {
		t.Fatal("no optimizer.misestimation event reached the sink")
	}

	// Non-injecting and nil decisions must be ignored entirely.
	opt.ObserveRuntime(&Decision{}, 0.5)
	opt.ObserveRuntime(nil, 0.5)
	if got := reg.Counter("optimizer_observations_total", "").Value(); got != 2 {
		t.Fatalf("observations = %v, want 2", got)
	}
}

func TestCompiledInstrumentScalarAndBatch(t *testing.T) {
	reg := metrics.New()
	_, dec := optimizeWithMetrics(t, reg, nil)
	dec.Filter.Instrument(reg)

	blobs := testkit.Blobs(500, 64)
	// Batches of one, then one batch of many.
	testEach(dec.Filter, blobs[:100])
	testAll(dec.Filter, blobs[100:])

	var tested, passed float64
	for _, clause := range dec.LeafClauses() {
		lbl := metrics.L("clause", clause)
		tested += reg.Counter("pp_clause_tested_total", "", lbl).Value()
		passed += reg.Counter("pp_clause_passed_total", "", lbl).Value()
		if reg.Histogram("pp_clause_score", "", lbl).Count() == 0 {
			t.Fatalf("clause %q recorded no scores", clause)
		}
	}
	// Conjunctions short-circuit, so later leaves only score survivors:
	// at least one leaf saw all 500 blobs, and no leaf saw more.
	if tested < 500 || tested > float64(500*dec.NumPPs) {
		t.Fatalf("tested = %v, want within [500, %d]", tested, 500*dec.NumPPs)
	}
	if passed <= 0 || passed >= tested {
		t.Fatalf("passed = %v outside (0, %v)", passed, tested)
	}

	// An uninstrumented filter must keep working and record nothing new.
	before := tested
	var nilFilter *Compiled
	nilFilter.Instrument(reg) // nil receiver is a no-op
	dec.Filter.Instrument(nil)
	testAll(dec.Filter, blobs[:1])
	var after float64
	for _, clause := range dec.LeafClauses() {
		after += reg.Counter("pp_clause_tested_total", "", metrics.L("clause", clause)).Value()
	}
	if after != before {
		t.Fatalf("detached filter still recorded: %v -> %v", before, after)
	}
}
