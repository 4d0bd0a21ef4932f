package optimizer_test

import (
	"strconv"
	"testing"

	"probpred/internal/blob"
	"probpred/internal/obs"
	"probpred/internal/optimizer"
	"probpred/internal/query"
	"probpred/internal/testkit"
)

// The optimizer takes no tracer: these tests hold the spans and events
// internal/obs derives from a decision, which is why they live outside the
// package.

// miniCorpus is the mini fixture's PPs trained on val.
func miniCorpus(t testing.TB, val []blob.Blob) *optimizer.Corpus {
	t.Helper()
	c := optimizer.NewCorpus()
	for _, pp := range testkit.PPs(t, val) {
		c.Add(pp)
	}
	return c
}

// TestOptimizeSearchStats: every Optimize call must profile its own plan
// search — candidates generated/costed, memo behaviour, wall time.
func TestOptimizeSearchStats(t *testing.T) {
	val := testkit.Blobs(2000, 61)
	c := miniCorpus(t, val)
	opt := optimizer.New(c)
	dec, err := opt.Optimize(query.MustParse("t=SUV & c=red"), optimizer.Options{
		Accuracy: 0.95, UDFCost: 100, Domains: testkit.Domains(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := dec.Search
	if s.Costed != dec.NumCandidates {
		t.Fatalf("Costed = %d, NumCandidates = %d", s.Costed, dec.NumCandidates)
	}
	if s.Generated < s.Costed {
		t.Fatalf("Generated %d < Costed %d", s.Generated, s.Costed)
	}
	if s.MemoEntries == 0 {
		t.Fatal("DP search stored no memo entries")
	}
	if s.WallNS <= 0 {
		t.Fatalf("WallNS = %d", s.WallNS)
	}
	// The uncovered-predicate path must fill stats too (zero candidates).
	dec2, err := opt.Optimize(query.MustParse("z=1"), optimizer.Options{Accuracy: 0.9, UDFCost: 100})
	if err != nil {
		t.Fatal(err)
	}
	if dec2.Inject || dec2.Search.Costed != 0 || dec2.Search.WallNS <= 0 {
		t.Fatalf("uncovered-predicate stats wrong: %+v", dec2.Search)
	}
}

// TestOptimizeEmitsSpanAndMetrics: the optimize span derived from a
// decision carries the search's counts (its Decision.Search ledger).
func TestOptimizeEmitsSpanAndMetrics(t *testing.T) {
	val := testkit.Blobs(2000, 62)
	c := miniCorpus(t, val)
	opt := optimizer.New(c)
	col := obs.NewCollector()
	pred := query.MustParse("t=SUV & c=red")
	dec, err := opt.Optimize(pred, optimizer.Options{
		Accuracy: 0.95, UDFCost: 100, Domains: testkit.Domains(),
	})
	if err != nil {
		t.Fatal(err)
	}
	obs.New(col).EmitSearch(obs.TraceContext{}, pred, dec)
	spans := col.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1 optimize span", len(spans))
	}
	sp := spans[0]
	if sp.Kind != obs.KindOptimize || sp.Name != pred.String() {
		t.Fatalf("span = %s/%q", sp.Kind, sp.Name)
	}
	if sp.CostVMS != dec.PlanCost {
		t.Fatalf("span cost %v, plan cost %v", sp.CostVMS, dec.PlanCost)
	}
	if sp.WallNS != dec.Search.WallNS {
		t.Fatalf("span wall %d, search wall %d", sp.WallNS, dec.Search.WallNS)
	}
	// Every count of the search's ledger is on the span, as an attribute.
	attrs := map[string]string{}
	for _, a := range sp.Attrs {
		attrs[a.Key] = a.Value
	}
	for key, want := range map[string]int{
		"candidates":           dec.Search.Costed,
		"candidates_generated": dec.Search.Generated,
		"memo_hits":            dec.Search.MemoHits,
		"memo_entries":         dec.Search.MemoEntries,
	} {
		if attrs[key] != strconv.Itoa(want) {
			t.Fatalf("span attr %s = %q, want %d", key, attrs[key], want)
		}
	}
	if attrs["injected"] != strconv.FormatBool(dec.Inject) {
		t.Fatalf("span attr injected = %q for Inject=%v", attrs["injected"], dec.Inject)
	}
}

// TestObserveRuntimeRecordsDrift: ObserveRuntime reports an observation
// outside the dependence tolerance as a misestimation and flags the plan's
// clause pairs; obs.Tracer.EmitMisestimation turns the verdict into an
// optimizer.misestimation event under the caller's trace.
func TestObserveRuntimeRecordsDrift(t *testing.T) {
	val := testkit.Blobs(2000, 63)
	opt := optimizer.New(miniCorpus(t, val))
	dec, err := opt.Optimize(query.MustParse("t=SUV & c=red"), optimizer.Options{
		Accuracy: 0.95, UDFCost: 100, Domains: testkit.Domains(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Inject || dec.NumPPs < 2 {
		t.Fatalf("mini scenario should inject a conjunction of PPs: %q", dec.Expr)
	}

	// In-tolerance observation: no misestimation, no flag.
	if opt.ObserveRuntime(dec, dec.Reduction) {
		t.Fatal("in-tolerance observation reported as a misestimation")
	}
	if n := opt.DependentPairs(); n != 0 {
		t.Fatalf("in-tolerance observation flagged %d pairs", n)
	}

	// Way-off observation: a misestimation, and the plan's pairs flagged.
	if !opt.ObserveRuntime(dec, 0) {
		t.Fatal("way-off observation not reported as a misestimation")
	}
	if n, want := opt.DependentPairs(), dec.NumPPs*(dec.NumPPs-1)/2; n != want {
		t.Fatalf("dependent pairs = %d, want %d", n, want)
	}
	col := obs.NewCollector()
	ctx := obs.TraceContext{TraceID: obs.NewTraceID()}
	obs.New(col).EmitMisestimation(ctx, dec, 0)
	(*obs.Tracer)(nil).EmitMisestimation(ctx, dec, 0) // a nil tracer emits nothing
	events := col.Events()
	if len(events) != 1 || events[0].Name != "optimizer.misestimation" || events[0].Trace != ctx.TraceID {
		t.Fatalf("events = %+v, want one optimizer.misestimation under trace %s", events, ctx.TraceID)
	}

	// Non-injecting and nil decisions are ignored entirely.
	if opt.ObserveRuntime(&optimizer.Decision{}, 0.5) || opt.ObserveRuntime(nil, 0.5) {
		t.Fatal("a decision that injected nothing reported a misestimation")
	}
}
