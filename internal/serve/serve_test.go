package serve

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"probpred/internal/engine"
	"probpred/internal/metrics"
	"probpred/internal/optimizer"
	"probpred/internal/query"
	"probpred/internal/testkit"
)

// TestPlanCacheSharesSemanticallyEqualQueries: queries that differ only in
// spelling (clause order, double negation) resolve to one plan-cache entry.
// (That the cached plan serves the reference's rows is the oracle's:
// testkit.Workload respells Q4 and Q6.)
func TestPlanCacheSharesSemanticallyEqualQueries(t *testing.T) {
	st := newMiniStack(t, 1500, nil)
	spellings := []string{
		"t=SUV & c=red",
		"c=red & t=SUV",
		"!(!(t=SUV)) & c=red",
	}
	var first *Response
	for i, s := range spellings {
		resp, err := st.srv.Do(Request{ID: s, Pred: query.MustParse(s)})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if resp.PlanCached {
				t.Fatalf("first session unexpectedly hit the plan cache")
			}
			first = resp
			continue
		}
		if !resp.PlanCached {
			t.Errorf("spelling %q missed the plan cache", s)
		}
		if resp.PlanKey != first.PlanKey {
			t.Errorf("spelling %q got key %q, want %q", s, resp.PlanKey, first.PlanKey)
		}
	}
	stats := st.srv.Stats()
	if stats.PlanMisses != 1 || stats.PlanHits != 2 {
		t.Errorf("plan cache hits/misses = %d/%d, want 2/1", stats.PlanHits, stats.PlanMisses)
	}
	if stats.PlanEntries != 1 {
		t.Errorf("plan cache holds %d entries, want 1", stats.PlanEntries)
	}
}

// TestPlanCacheInvalidatesOnCorpusChange: a corpus mutation (the watchdog's
// Remove, online training's Add) makes cached plans stale; the next session
// re-searches instead of serving a plan compiled against the old corpus.
func TestPlanCacheInvalidatesOnCorpusChange(t *testing.T) {
	st := newMiniStack(t, 1200, nil)
	pred := "t=SUV & c=red"
	if _, err := st.srv.Do(Request{ID: "warm", Pred: query.MustParse(pred)}); err != nil {
		t.Fatal(err)
	}
	// Watchdog trips the t=SUV PP: the cached plan uses a retired PP.
	if !st.corpus.Remove("t=SUV") {
		t.Fatal("corpus had no t=SUV PP to remove")
	}
	resp, err := st.srv.Do(Request{ID: "after", Pred: query.MustParse(pred)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.PlanCached {
		t.Fatal("session served a stale cached plan after a corpus change")
	}
	for _, leaf := range resp.Decision.LeafClauses() {
		if leaf == "t=SUV" {
			t.Fatal("re-planned decision still uses the removed t=SUV PP")
		}
	}
	if inv := st.srv.Stats().PlanInvalidations; inv < 1 {
		t.Errorf("PlanInvalidations = %d, want >= 1", inv)
	}
}

// TestPerRunCacheCountersUnderConcurrency: concurrent sessions hitting the
// same cached plan object each report exactly their own score-cache lookups
// in PerOp (the shared-plan accounting fix, end to end through serve).
func TestPerRunCacheCountersUnderConcurrency(t *testing.T) {
	st := newMiniStack(t, 1500, func(c *Config) {
		c.MaxConcurrent = 4
	})
	pred := query.MustParse("t=SUV & c=red")
	// Warm plan and score caches.
	warm, err := st.srv.Do(Request{ID: "warm", Pred: pred})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Decision.Inject {
		t.Skip("optimizer declined to inject; no PP op to check")
	}
	ppLookups := func(r *Response) (hits, misses uint64) {
		for _, op := range r.Result.PerOp {
			if op.PPFilter {
				return op.CacheHits, op.CacheMisses
			}
		}
		t.Fatal("no PPFilter op in result")
		return 0, 0
	}
	wh, wm := ppLookups(warm)
	if wh+wm == 0 {
		t.Fatal("warm run recorded no score-cache lookups")
	}
	const sessions = 8
	resps := make([]*Response, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = st.srv.Do(Request{ID: "c", Pred: pred})
		}(i)
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		h, m := ppLookups(resps[i])
		// After warmup every lookup hits, and each session sees exactly the
		// warm run's lookup count — interleaved accounting would smear
		// counts across sessions.
		if h != wh+wm || m != 0 {
			t.Errorf("session %d: hits=%d misses=%d, want %d/0", i, h, m, wh+wm)
		}
	}
}

// TestAdmissionControl: MaxConcurrent bounds simultaneously executing
// sessions even when Replay dispatches more workers.
func TestAdmissionControl(t *testing.T) {
	var active, maxActive atomic.Int64
	st := newMiniStack(t, 1200, func(c *Config) {
		c.MaxConcurrent = 1
		c.Builder.CorpusBuilder = testkit.Builder{UDF: gateUDF{UDF: 40, active: &active, maxActive: &maxActive}}
	})
	if _, err := st.srv.Replay(miniWorkload, 4); err != nil {
		t.Fatal(err)
	}
	if got := maxActive.Load(); got > 1 {
		t.Fatalf("observed %d concurrently executing sessions, admission cap is 1", got)
	}
}

// gateUDF is the kit's UDF, tracking how many sessions are executing rows
// at once.
type gateUDF struct {
	testkit.UDF
	active, maxActive *atomic.Int64
}

func (u gateUDF) Apply(b engine.Batch) error {
	n := u.active.Add(1)
	for {
		m := u.maxActive.Load()
		if n <= m || u.maxActive.CompareAndSwap(m, n) {
			break
		}
	}
	defer u.active.Add(-1)
	return u.UDF.Apply(b)
}

// TestOptimizerWithoutCorpusRefused: a server plans through its
// optimizer's corpus, so New and NewSharded refuse an optimizer that has
// none rather than fail on the first request.
func TestOptimizerWithoutCorpusRefused(t *testing.T) {
	cfg, _ := miniConfig(t, testkit.Blobs(40, 7))
	cfg.Optimizer = optimizer.New(nil)
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "corpus") {
		t.Errorf("New: error %v, want a refusal naming the corpus", err)
	}
	sharded := ShardedConfig{Base: cfg, Shards: 2, Corpus: testkit.Blobs(40, 7), Builder: testkit.Builder{}}
	if _, err := NewSharded(sharded); err == nil || !strings.Contains(err.Error(), "corpus") {
		t.Errorf("NewSharded: error %v, want a refusal naming the corpus", err)
	}
}

// TestServeMetrics: the serving counters and gauges land in the registry.
func TestServeMetrics(t *testing.T) {
	reg := metrics.New()
	st := newMiniStack(t, 1000, func(c *Config) { c.Metrics = reg })
	if _, err := st.srv.Replay(miniWorkload[:5], 2); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("serve_sessions_total", "").Value(); got != 5 {
		t.Errorf("serve_sessions_total = %v, want 5", got)
	}
	hits := reg.Counter("serve_plan_cache_hits_total", "").Value()
	misses := reg.Counter("serve_plan_cache_misses_total", "").Value()
	if hits+misses != 5 {
		t.Errorf("plan cache hits+misses = %v+%v, want 5 total", hits, misses)
	}
	if misses == 0 {
		t.Error("expected at least one plan-cache miss on a cold server")
	}
	if reg.Gauge("serve_active_sessions", "").Value() != 0 {
		t.Error("active-session gauge nonzero after all sessions completed")
	}
	if reg.Gauge("serve_admission_queue_depth", "").Value() != 0 {
		t.Error("admission-queue gauge nonzero after all sessions completed")
	}
}
