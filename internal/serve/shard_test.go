package serve

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"probpred/internal/blob"
	"probpred/internal/engine"
	"probpred/internal/metrics"
	"probpred/internal/obs"
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
			c := newMiniSharded(t, 60, shards, 1, nil)
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
			testkit.CheckLedger(t, "merged", first.Result)
			// Legs run in parallel: merged modeled latency is the slowest shard's,
			// which over a partitioned corpus cannot exceed the unsharded latency.
			if first.Result.Latency > base.Result.Latency {
				t.Errorf("merged Latency %.4f exceeds unsharded %.4f", first.Result.Latency, base.Result.Latency)
			}
		})
	}
}

// TestMergeLegsComparesPlansOperatorByOperator merges two fabricated legs
// whose plans have one length: a replica that re-planned after a retrain runs
// Scan → PP → UDF → σ with another PP filter than its sibling's cached plan.
// Their per-operator ledgers must not be summed under one leg's names; legs
// of one plan still are.
func TestMergeLegsComparesPlansOperatorByOperator(t *testing.T) {
	legOf := func(pp string, cost float64) leg {
		return leg{resp: &Response{Result: &engine.Result{
			ClusterTime: 4 * cost,
			PerOp: []engine.OpStats{
				{Name: "Scan", Cost: cost},
				{Name: "PP[" + pp + "]", PPFilter: true, Cost: cost},
				{Name: "TypeClassifier", Cost: cost},
				{Name: "σ[t=SUV]", Cost: cost},
			},
		}}}
	}
	merged := mergeLegs([]leg{legOf("t=SUV", 1), legOf("t=SUV", 2)})
	if got := merged.Result.PerOp; len(got) != 4 || got[1].Name != "PP[t=SUV]" || got[1].Cost != 3 {
		t.Fatalf("legs of one plan: merged PerOp %+v, want four operators summed", got)
	}
	merged = mergeLegs([]leg{legOf("t=SUV", 1), legOf("t=SUV & c=red", 2)})
	if got := merged.Result.PerOp; got != nil {
		t.Errorf("legs of two plans: merged PerOp %+v, want none", got)
	}
	if merged.Result.ClusterTime != 12 {
		t.Errorf("legs of two plans: ClusterTime %v, want 12", merged.Result.ClusterTime)
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
	c := newMiniSharded(t, 60, 3, 1, func(cfg *ShardedConfig) {
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

	// Defaults: zero shards/replicas select 1.
	c, err := NewSharded(ShardedConfig{
		Base: base, Corpus: blobs, Builder: testkit.Builder{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.shards) != 1 || len(c.shards[0].replicas) != 1 {
		t.Errorf("defaulted to %d shards × %d replicas, want 1 × 1", len(c.shards), len(c.shards[0].replicas))
	}
}

func TestRouters(t *testing.T) {
	t.Run("round-robin cycles per shard", func(t *testing.T) {
		shards := []*shard{{replicas: make([]*replica, 3)}, {replicas: make([]*replica, 3)}}
		for i, sh := range shards {
			for want := 0; want < 6; want++ {
				if got := sh.pick(); got != want%3 {
					t.Fatalf("shard %d pick %d = %d, want %d", i, want, got, want%3)
				}
			}
		}

		// End to end: a predicate repeated on 2 shards × 2 replicas reaches
		// both replicas of every shard, so each plans it once. A clause the
		// predicate never consulted is retrained half-way: the warm plans
		// survive by revalidation, and Stats sums every replica's.
		c := newMiniSharded(t, 60, 2, 2, nil)
		pred := query.MustParse("t=SUV & c=red")
		for i := 0; i < 4; i++ {
			if i == 2 {
				c.cfg.Optimizer.Corpus().Add(retrainSpeedPP(t, "s>60"))
			}
			if _, err := c.Do(Request{ID: fmt.Sprintf("Q%d", i), Pred: pred}); err != nil {
				t.Fatal(err)
			}
		}
		var revalidations uint64
		for i, perShard := range c.ReplicaStats() {
			for r, st := range perShard {
				if st.Sessions != 2 || st.PlanMisses != 1 {
					t.Errorf("shard %d replica %d: %d legs, %d plan misses; want 2 legs, 1 miss", i, r, st.Sessions, st.PlanMisses)
				}
				revalidations += st.PlanRevalidations
			}
		}
		if got := c.Stats().PlanRevalidations; got == 0 || got != revalidations {
			t.Errorf("Stats().PlanRevalidations = %d, want the replicas' sum %d (non-zero)", got, revalidations)
		}
	})
}

// TestShardedColdLegsSearchConcurrently: two replicas of one shard, both cold
// for one key, plan it at the same time on the optimizer they share — nothing
// orders the two searches. Both legs complete with the same decision, and each
// replica's own plan cache records its one miss.
func TestShardedColdLegsSearchConcurrently(t *testing.T) {
	c := newMiniSharded(t, 120, 1, 2, nil)
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
