package serve

// Partial plan-cache invalidation: a corpus mutation (per-segment PP
// retraining in a stream, a watchdog trip) must evict exactly the cached
// plans that consulted the mutated clause — every other plan survives via
// revalidation, keeping the hit rate streams depend on.

import (
	"fmt"
	"sync"
	"testing"

	"probpred/internal/core"
	"probpred/internal/obs"
	"probpred/internal/optimizer"
	"probpred/internal/query"
	"probpred/internal/testkit"
)

// retrainSpeedPP builds a replacement PP for a speed clause, standing in for
// one round of incremental retraining.
func retrainSpeedPP(t *testing.T, clause string) *core.PP {
	return testkit.SpeedPP(t, clause, "retrained", testkit.Blobs(400, 8), 4, 1.1)
}

func TestPartialInvalidationSurvivesUnrelatedRetraining(t *testing.T) {
	st := newMiniStack(t, 200, nil)
	do := func(pred string) {
		t.Helper()
		if _, err := st.srv.Do(Request{ID: pred, Pred: query.MustParse(pred)}); err != nil {
			t.Fatal(err)
		}
	}
	// Prime plans on disjoint columns.
	do("c=red")
	do("t=SUV")
	do("s>60")
	base := st.srv.Stats()
	if base.PlanMisses != 3 || base.PlanHits != 0 {
		t.Fatalf("priming: %d misses / %d hits, want 3 / 0", base.PlanMisses, base.PlanHits)
	}

	// Retrain the s>60 PP. Only the plan that consulted column s may go.
	st.corpus.Add(retrainSpeedPP(t, "s>60"))

	do("c=red")
	do("t=SUV")
	s := st.srv.Stats()
	if s.PlanMisses != base.PlanMisses {
		t.Errorf("unrelated plans re-searched after s-column retraining: %d misses, want %d", s.PlanMisses, base.PlanMisses)
	}
	if s.PlanHits != base.PlanHits+2 {
		t.Errorf("PlanHits = %d, want %d (both unrelated plans must hit)", s.PlanHits, base.PlanHits+2)
	}
	if s.PlanRevalidations == 0 {
		t.Error("PlanRevalidations = 0, want > 0 (stale-version entries kept)")
	}
	if s.PlanInvalidations != 0 {
		t.Errorf("PlanInvalidations = %d, want 0 so far", s.PlanInvalidations)
	}

	// Revalidation refreshes the stored version: the next hit must not
	// revalidate again.
	reval := s.PlanRevalidations
	do("c=red")
	s = st.srv.Stats()
	if s.PlanRevalidations != reval {
		t.Errorf("second hit revalidated again (%d → %d); version not refreshed in place", reval, s.PlanRevalidations)
	}

	// The plan that did consult s>60 is stale: evicted once, searched once.
	do("s>60")
	s = st.srv.Stats()
	if s.PlanInvalidations != 1 {
		t.Errorf("PlanInvalidations = %d, want 1", s.PlanInvalidations)
	}
	if s.PlanMisses != base.PlanMisses+1 {
		t.Errorf("PlanMisses = %d, want %d", s.PlanMisses, base.PlanMisses+1)
	}
}

// TestWatchdogRemoveInvalidatesDependents: Remove (a watchdog trip) follows
// the same dependency rules as Add.
func TestWatchdogRemoveInvalidatesDependents(t *testing.T) {
	st := newMiniStack(t, 200, nil)
	do := func(pred string) {
		t.Helper()
		if _, err := st.srv.Do(Request{ID: pred, Pred: query.MustParse(pred)}); err != nil {
			t.Fatal(err)
		}
	}
	do("c=red")
	do("s>60")
	if !st.corpus.Remove("s>60") {
		t.Fatal("corpus had no s>60 PP")
	}
	do("c=red")
	do("s>60")
	s := st.srv.Stats()
	if s.PlanInvalidations != 1 {
		t.Errorf("PlanInvalidations = %d, want 1 (only the s>60 plan consulted the removed clause)", s.PlanInvalidations)
	}
	if s.PlanHits != 1 {
		t.Errorf("PlanHits = %d, want 1 (c=red survives the trip)", s.PlanHits)
	}
}

// TestStaleEvictionExactlyOnce: N sessions racing into a stale entry evict
// it once — one invalidation, one re-search — and everyone else hits the
// refreshed plan.
func TestStaleEvictionExactlyOnce(t *testing.T) {
	st := newMiniStack(t, 200, nil)
	pred := query.MustParse("s>60")
	if _, err := st.srv.Do(Request{ID: "prime", Pred: pred}); err != nil {
		t.Fatal(err)
	}
	st.corpus.Add(retrainSpeedPP(t, "s>60"))

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := st.srv.Do(Request{ID: fmt.Sprintf("racer-%d", g), Pred: pred}); err != nil {
				errs <- err
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	s := st.srv.Stats()
	if s.PlanInvalidations != 1 {
		t.Errorf("PlanInvalidations = %d, want exactly 1", s.PlanInvalidations)
	}
	if s.PlanMisses != 2 {
		t.Errorf("PlanMisses = %d, want 2 (priming search + one post-retraining search)", s.PlanMisses)
	}
	if want := uint64(goroutines - 1); s.PlanHits != want {
		t.Errorf("PlanHits = %d, want %d", s.PlanHits, want)
	}
}

// TestPlanEntryStampedWithSearchedSnapshot: a corpus mutation landing between
// a search's snapshot load and the entry's insertion must not be papered over
// by the stamp. The entry carries the version the search consulted, so the
// next lookup sees the consulted clause moved and misses; stamped with a later
// Corpus.Version read it would pass every revalidation and serve the retired
// PP for good.
func TestPlanEntryStampedWithSearchedSnapshot(t *testing.T) {
	st := newMiniStack(t, 200, nil)
	pred := query.MustParse("s>60")
	key := optimizer.PlanKey(pred, 0.95)
	searchedOn := st.corpus.Version()
	e, err := st.srv.searchPlan(pred, 0.95, key, obs.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	st.corpus.Add(retrainSpeedPP(t, "s>60"))
	st.srv.plans.put(e)

	if e.version != searchedOn || e.dec.CorpusVersion != searchedOn {
		t.Fatalf("entry stamped %d (decision %d), want the searched snapshot's %d", e.version, e.dec.CorpusVersion, searchedOn)
	}
	if _, ok := st.srv.plans.get(key, st.corpus.Version()); ok {
		t.Fatal("entry searched before the retraining was served after it")
	}
	resp, err := st.srv.Do(Request{ID: "after", Pred: pred})
	if err != nil {
		t.Fatal(err)
	}
	if resp.PlanCached || resp.Decision.CorpusVersion != st.corpus.Version() {
		t.Errorf("session after the retraining: cached=%v on corpus version %d, want a fresh search on %d",
			resp.PlanCached, resp.Decision.CorpusVersion, st.corpus.Version())
	}
}
