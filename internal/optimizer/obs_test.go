package optimizer

import (
	"strconv"
	"testing"

	"probpred/internal/metrics"
	"probpred/internal/obs"
	"probpred/internal/query"
	"probpred/internal/testkit"
)

// TestOptimizeSearchStats: every Optimize call must profile its own plan
// search — candidates generated/costed, memo behaviour, wall time.
func TestOptimizeSearchStats(t *testing.T) {
	val := testkit.Blobs(2000, 61)
	c := miniCorpus(t, val)
	opt := New(c)
	dec, err := opt.Optimize(query.MustParse("t=SUV & c=red"), Options{
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
	dec2, err := opt.Optimize(query.MustParse("z=1"), Options{Accuracy: 0.9, UDFCost: 100})
	if err != nil {
		t.Fatal(err)
	}
	if dec2.Inject || dec2.Search.Costed != 0 || dec2.Search.WallNS <= 0 {
		t.Fatalf("uncovered-predicate stats wrong: %+v", dec2.Search)
	}
}

// TestOptimizeEmitsSpanAndMetrics: with a tracer and a registry attached, one
// optimize span carrying the search's counts reaches the sink and the
// aggregates reach the registry.
func TestOptimizeEmitsSpanAndMetrics(t *testing.T) {
	val := testkit.Blobs(2000, 62)
	c := miniCorpus(t, val)
	opt := New(c)
	reg := metrics.New()
	opt.SetMetrics(reg)
	col := obs.NewCollector()
	pred := query.MustParse("t=SUV & c=red")
	dec, err := opt.Optimize(pred, Options{
		Accuracy: 0.95, UDFCost: 100, Domains: testkit.Domains(), Obs: obs.New(col),
	})
	if err != nil {
		t.Fatal(err)
	}
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
	// And the aggregates are on the registry, once per search.
	if got := reg.Counter("optimizer_searches_total", "").Value(); got != 1 {
		t.Fatalf("optimizer_searches_total = %v, want 1", got)
	}
	if got := reg.Histogram("optimizer_candidates_costed", "").Sum(); got != float64(dec.Search.Costed) {
		t.Fatalf("optimizer_candidates_costed sum = %v, want %d", got, dec.Search.Costed)
	}
	if got := reg.Counter("optimizer_injections_total", "").Value(); dec.Inject && got != 1 {
		t.Fatalf("optimizer_injections_total = %v for an injecting decision", got)
	}
}
