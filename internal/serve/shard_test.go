package serve

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"probpred/internal/adapt"
	"probpred/internal/blob"
	"probpred/internal/engine"
	"probpred/internal/metrics"
	"probpred/internal/obs"
	"probpred/internal/optimizer"
	"probpred/internal/query"
	"probpred/internal/testkit"
)

func TestSplitBlobs(t *testing.T) {
	blobs := testkit.Blobs(10, 1)
	for _, tc := range []struct {
		n    int
		want []int // slice lengths
	}{
		{1, []int{10}},
		{2, []int{5, 5}},
		{3, []int{4, 3, 3}},
		{4, []int{3, 3, 2, 2}},
		{0, []int{10}}, // n<1 selects 1
	} {
		got := SplitBlobs(blobs, tc.n)
		if len(got) != len(tc.want) {
			t.Fatalf("SplitBlobs(n=%d): %d slices, want %d", tc.n, len(got), len(tc.want))
		}
		id := 0
		for i, slice := range got {
			if len(slice) != tc.want[i] {
				t.Errorf("SplitBlobs(n=%d)[%d]: len %d, want %d", tc.n, i, len(slice), tc.want[i])
			}
			// Contiguity: concatenating slices in order must walk blob IDs in
			// the original order — the property the gather's determinism
			// argument rests on.
			for _, b := range slice {
				if b.ID != id {
					t.Fatalf("SplitBlobs(n=%d): blob ID %d at global position %d", tc.n, b.ID, id)
				}
				id++
			}
		}
	}
}

// TestShardedMergeAccounting checks the merge invariants beyond the ones the
// oracle holds to the reference (merged rows, PerOp and ClusterTime are
// TestShardedDeterminism's), over 1, 2 and 4 shards: the merged ledger
// balances, latency is the max over parallel legs, and PlanCached ANDs
// across legs.
func TestShardedMergeAccounting(t *testing.T) {
	st := newMiniStack(t, 60, nil)
	pred := query.MustParse("t=SUV & s>60")
	base, err := st.srv.Do(Request{ID: "Q", Pred: pred})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			c := newMiniSharded(t, 60, shards, 1, RouteRoundRobin, nil)
			first, err := c.Do(Request{ID: "Q", Pred: pred})
			if err != nil {
				t.Fatal(err)
			}
			if first.PlanCached {
				t.Error("first scatter session reported PlanCached; every replica planned fresh")
			}
			again, err := c.Do(Request{ID: "Q", Pred: pred})
			if err != nil {
				t.Fatal(err)
			}
			if !again.PlanCached {
				t.Error("repeat scatter session not PlanCached; all legs should hit their plan caches")
			}
			testkit.CheckLedger(t, "merged", first.Result, adapt.ReplanOp)
			// Legs run in parallel: merged modeled latency is the slowest shard's,
			// which over a partitioned corpus cannot exceed the unsharded latency.
			if first.Result.Latency > base.Result.Latency {
				t.Errorf("merged Latency %.4f exceeds unsharded %.4f", first.Result.Latency, base.Result.Latency)
			}
		})
	}
}

// TestMergeLegsKeepsLedgerWhenReplanCountsDiffer: an adapt controller ends
// every leg's PerOp with a re-plan row, zero when the leg did not re-plan, so
// legs that re-planned a different number of times still share a PerOp shape
// and merge positionally — the merged ledger keeps accounting for the merged
// ClusterTime. (Which leg re-plans depends on its slice's drift, so the legs
// are hand-built.)
func TestMergeLegsKeepsLedgerWhenReplanCountsDiffer(t *testing.T) {
	legResp := func(rows int, replanVMS float64) *Response {
		passed := rows / 2
		ops := []engine.OpStats{
			{Name: "Scan", RowsOut: rows, Cost: 0.05 * float64(rows)},
			{Name: "PP[t=SUV]", PPFilter: true, RowsIn: rows, RowsOut: passed, Cost: 1.3 * float64(rows)},
			{Name: "miniUDF", RowsIn: passed, RowsOut: passed, Cost: 40 * float64(passed)},
			{Name: adapt.ReplanOp, Cost: replanVMS},
		}
		res := &engine.Result{Rows: make([]engine.Row, passed), PerOp: ops}
		for _, op := range ops {
			res.ClusterTime += op.Cost
		}
		return &Response{ID: "Q", Result: res, Decision: &optimizer.Decision{}, PlanCached: true}
	}
	merged := mergeLegs([]leg{
		{shard: 0, resp: legResp(30, 10)}, // re-planned twice
		{shard: 1, resp: legResp(31, 0)},  // never re-planned
		{shard: 2, resp: legResp(29, 5)},  // re-planned once
	})
	testkit.CheckLedger(t, "ledger", merged.Result, adapt.ReplanOp)
	last := merged.Result.PerOp[len(merged.Result.PerOp)-1]
	if last.Name != adapt.ReplanOp || last.Cost != 15 {
		t.Fatalf("merged re-plan row = %+v, want %s at 15 vms", last, adapt.ReplanOp)
	}
}

// TestShardedPlanAffinityWarmth asserts the point of plan-affinity routing:
// repeats of one predicate hit a single warm replica per shard (one plan
// search each), while round-robin spreads them over every replica and
// re-pays the search per replica. Half-way through, a clause the predicate
// never consulted is retrained: the warm plans must survive by revalidation
// (no extra searches), and the server must report those revalidations.
func TestShardedPlanAffinityWarmth(t *testing.T) {
	const repeats = 4
	run := func(routing RoutingPolicy) (misses uint64, warmReplicas int) {
		c := newMiniSharded(t, 60, 2, 2, routing, nil)
		pred := query.MustParse("t=SUV & c=red")
		for i := 0; i < repeats; i++ {
			if i == repeats/2 {
				c.cfg.Optimizer.Corpus().Add(retrainSpeedPP(t, "s>60"))
			}
			if _, err := c.Do(Request{ID: fmt.Sprintf("Q%d", i), Pred: pred}); err != nil {
				t.Fatal(err)
			}
		}
		var revalidations uint64
		for _, perShard := range c.ReplicaStats() {
			for _, st := range perShard {
				misses += st.PlanMisses
				revalidations += st.PlanRevalidations
				if st.PlanHits > 0 {
					warmReplicas++
				}
			}
		}
		if got := c.Stats().PlanRevalidations; got == 0 || got != revalidations {
			t.Errorf("%s: Stats().PlanRevalidations = %d, want the replicas' sum %d (non-zero)", routing, got, revalidations)
		}
		return misses, warmReplicas
	}

	affMisses, affWarm := run(RoutePlanAffinity)
	rrMisses, _ := run(RouteRoundRobin)

	// Affinity: the repeat predicate sticks to one replica per shard — one
	// search per shard, and that replica alone accumulates hits.
	if affMisses != 2 {
		t.Errorf("plan-affinity plan misses = %d, want 2 (one per shard)", affMisses)
	}
	if affWarm != 2 {
		t.Errorf("plan-affinity warm replicas = %d, want 2 (one per shard)", affWarm)
	}
	// Round-robin alternates replicas, so every replica of every shard pays
	// its own search: 2 shards × 2 replicas.
	if rrMisses != 4 {
		t.Errorf("round-robin plan misses = %d, want 4 (every replica)", rrMisses)
	}
	if affMisses >= rrMisses {
		t.Errorf("affinity (%d misses) should plan strictly less than round-robin (%d)", affMisses, rrMisses)
	}
}

// TestShardedFailureAttribution: when one shard fails, the session errors out
// promptly with the failing shard attributed — never a hang, never a partial
// result — the failure is counted, and the flight recorder auto-dumps on the
// shard.fail event.
func TestShardedFailureAttribution(t *testing.T) {
	var dump bytes.Buffer
	fr := obs.NewFlightRecorder(64, &dump)
	reg := metrics.New()
	c := newMiniSharded(t, 60, 3, 1, RouteRoundRobin, func(cfg *ShardedConfig) {
		cfg.Builder = testkit.Builder{Refuse: func(blobs []blob.Blob, _ query.Pred) error {
			if len(blobs) > 0 && blobs[0].ID == 0 { // blob 0 opens shard 0 of any contiguous split
				return errors.New("injected shard fault (blob 0)")
			}
			return nil
		}}
		cfg.Base.Obs = obs.New(fr)
		cfg.Base.Metrics = reg
	})

	resp, err := c.Do(Request{ID: "QF", Pred: query.MustParse("t=SUV")})
	if err == nil {
		t.Fatal("scatter over a failing shard returned no error")
	}
	if resp != nil {
		t.Errorf("failed scatter returned a partial response: %+v", resp)
	}
	msg := err.Error()
	if !strings.Contains(msg, "shard 0") {
		t.Errorf("error does not attribute the failing shard: %v", err)
	}
	if !strings.Contains(msg, "injected shard fault") {
		t.Errorf("error lost the underlying cause: %v", err)
	}
	if strings.Contains(msg, "shard 1") || strings.Contains(msg, "shard 2") {
		t.Errorf("healthy shards blamed in error: %v", err)
	}

	if failures := reg.Counter("serve_session_errors_total", "").Value(); failures != 1 {
		t.Errorf("serve_session_errors_total = %v, want 1", failures)
	}
	if st := c.Stats(); st.Sessions != 1 {
		t.Errorf("Sessions = %d, want 1", st.Sessions)
	}
	if fr.Dumps() < 1 {
		t.Error("flight recorder did not auto-dump on shard.fail")
	}
	if !strings.Contains(dump.String(), "shard.fail") {
		t.Errorf("flight dump missing the shard.fail event:\n%s", dump.String())
	}

	// The server stays serviceable: a healthy predicate still fails (the
	// poisoned shard fails every plan), but a second server without the
	// fault serves fine — degradation is per-session, not sticky.
	if _, err := c.Do(Request{ID: "QF2", Pred: query.MustParse("c=red")}); err == nil {
		t.Error("poisoned shard unexpectedly recovered")
	}
}

// TestShardedValidation covers NewSharded's config errors.
func TestShardedValidation(t *testing.T) {
	blobs := testkit.Blobs(8, 7)
	base, _ := miniConfig(t, nil)

	if _, err := NewSharded(ShardedConfig{Base: base, Corpus: blobs}); err == nil {
		t.Error("nil Builder accepted")
	}
	if _, err := NewSharded(ShardedConfig{
		Base: base, Shards: 16, Corpus: blobs, Builder: testkit.Builder{},
	}); err == nil {
		t.Error("more shards than corpus blobs accepted")
	}
	badRouting := base
	badRouting.Routing = RoutingPolicy("random")
	if _, err := NewSharded(ShardedConfig{
		Base: badRouting, Corpus: blobs, Builder: testkit.Builder{},
	}); err == nil {
		t.Error("unknown routing policy accepted")
	}

	// Defaults: zero shards/replicas select 1, empty routing round-robin.
	c, err := NewSharded(ShardedConfig{
		Base: base, Corpus: blobs, Builder: testkit.Builder{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.shards) != 1 || len(c.shards[0].replicas) != 1 {
		t.Errorf("defaulted to %d shards × %d replicas, want 1 × 1", len(c.shards), len(c.shards[0].replicas))
	}
	if c.cfg.Routing != RouteRoundRobin {
		t.Errorf("defaulted Routing = %q, want %q", c.cfg.Routing, RouteRoundRobin)
	}
}

func TestRouters(t *testing.T) {
	// Replica load is directly settable in-package.
	mkReplicas := func(loads ...int64) []*replica {
		out := make([]*replica, len(loads))
		for i, l := range loads {
			out[i] = &replica{}
			out[i].active.Store(l)
		}
		return out
	}

	t.Run("round-robin cycles per shard", func(t *testing.T) {
		r := newRouter(RouteRoundRobin, 2)
		reps := mkReplicas(0, 0, 0)
		for shard := 0; shard < 2; shard++ {
			for want := 0; want < 6; want++ {
				if got := r.Pick(shard, "k", reps); got != want%3 {
					t.Fatalf("shard %d pick %d = %d, want %d", shard, want, got, want%3)
				}
			}
		}
	})

	t.Run("least-loaded picks min, ties low", func(t *testing.T) {
		r := newRouter(RouteLeastLoaded, 1)
		if got := r.Pick(0, "k", mkReplicas(3, 1, 2)); got != 1 {
			t.Errorf("pick = %d, want 1 (lowest load)", got)
		}
		if got := r.Pick(0, "k", mkReplicas(2, 1, 1)); got != 1 {
			t.Errorf("tie pick = %d, want 1 (lowest index among ties)", got)
		}
		reps := mkReplicas(5, 0)
		reps[1].queued.Store(7) // queued counts toward load too
		if got := r.Pick(0, "k", reps); got != 0 {
			t.Errorf("queued-aware pick = %d, want 0", got)
		}
	})

	t.Run("plan-affinity is sticky per key and in range", func(t *testing.T) {
		r := newRouter(RoutePlanAffinity, 1)
		reps := mkReplicas(0, 0, 0)
		seen := map[int]bool{}
		for _, key := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
			first := r.Pick(0, key, reps)
			if first < 0 || first >= len(reps) {
				t.Fatalf("key %q picked out-of-range replica %d", key, first)
			}
			for i := 0; i < 3; i++ {
				if got := r.Pick(0, key, reps); got != first {
					t.Fatalf("key %q not sticky: %d then %d", key, first, got)
				}
			}
			seen[first] = true
		}
		if len(seen) < 2 {
			t.Error("eight distinct keys all hashed to one replica; expected spread")
		}
	})
}

// TestShardedColdLegsSearchConcurrently: two replicas of one shard, both cold
// for one key, plan it at the same time on the optimizer they share — nothing
// orders the two searches. Both legs complete with the same decision, and each
// replica's own plan cache records its one miss.
func TestShardedColdLegsSearchConcurrently(t *testing.T) {
	c := newMiniSharded(t, 120, 1, 2, RouteRoundRobin, nil)
	pred := query.MustParse("t=SUV & c!=white & s>65")
	resps := make([]*Response, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range resps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			resps[i], errs[i] = c.Do(Request{ID: fmt.Sprintf("cold-%d", i), Pred: pred})
		}(i)
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	a, b := resps[0].Decision, resps[1].Decision
	if a == b {
		t.Fatal("both legs share one decision object: they were not planned per replica")
	}
	if a.Expr != b.Expr || a.LeafAccuracies != b.LeafAccuracies || a.PlanCost != b.PlanCost ||
		!reflect.DeepEqual(a.Consulted(), b.Consulted()) {
		t.Errorf("replicas planned differently:\n %s [%s] cost %v\n %s [%s] cost %v",
			a.Expr, a.LeafAccuracies, a.PlanCost, b.Expr, b.LeafAccuracies, b.PlanCost)
	}
	if got, want := renderResponses(resps[1:]), strings.Replace(renderResponses(resps[:1]), "cold-0", "cold-1", 1); got != want {
		t.Errorf("replicas served different results:\n got: %s\nwant: %s", got, want)
	}
	for r, st := range c.ReplicaStats()[0] {
		if st.PlanMisses != 1 || st.PlanHits != 0 {
			t.Errorf("replica %d: %d plan misses / %d hits, want 1 / 0", r, st.PlanMisses, st.PlanHits)
		}
	}
}
