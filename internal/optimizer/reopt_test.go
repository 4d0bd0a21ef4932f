package optimizer

import (
	"math"
	"testing"

	"probpred/internal/core"
	"probpred/internal/query"
	"probpred/internal/testkit"
)

// reoptDecision optimizes t=SUV & c=red over the mini corpus — a
// two-leaf conjunction whose short-circuit order the re-optimizer can flip.
func reoptDecision(t *testing.T) (*Optimizer, *Decision) {
	t.Helper()
	val := testkit.Blobs(600, 11)
	o := New(miniCorpus(t, val))
	dec, err := o.Optimize(query.MustParse("t=SUV & c=red"), Options{Accuracy: 1, UDFCost: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Inject || dec.NumPPs != 2 {
		t.Fatalf("want a two-PP injection, got inject=%v pps=%d", dec.Inject, dec.NumPPs)
	}
	return o, dec
}

// The observed filter counts per-leaf rows without changing outcomes, and
// short-circuiting shows in the counts: the second leaf only sees rows the
// first kept.
func TestRuntimeObserverCountsShortCircuit(t *testing.T) {
	_, dec := reoptDecision(t)
	obsF, ro := dec.Filter.WithRuntimeObserver()
	blobs := testkit.Blobs(500, 12)
	gotPass, gotCost := testAll(obsF, blobs)
	for i, b := range blobs {
		wantPass, wantCost := dec.Filter.Test(b)
		if wantPass != gotPass[i] || wantCost != gotCost[i] {
			t.Fatalf("blob %d: observed filter diverged (%v %v vs %v %v)",
				b.ID, gotPass[i], gotCost[i], wantPass, wantCost)
		}
	}
	stats := ro.Stats()
	if len(stats) != 2 {
		t.Fatalf("leaf stats = %d, want 2", len(stats))
	}
	first, second := stats[0], stats[1]
	if first.Tested != uint64(len(blobs)) {
		t.Fatalf("first leaf tested %d, want %d", first.Tested, len(blobs))
	}
	if second.Tested != first.Passed {
		t.Fatalf("second leaf tested %d, want first leaf's passed %d", second.Tested, first.Passed)
	}
	if first.PlannedReduction <= 0 || first.PlannedReduction >= 1 {
		t.Fatalf("planned reduction not populated: %v", first.PlannedReduction)
	}
}

// One batch of many feeds the probes exactly as batches of one do.
func TestRuntimeObserverBatchMatchesScalar(t *testing.T) {
	_, dec := reoptDecision(t)
	blobs := testkit.Blobs(300, 13)

	scalarF, scalarRO := dec.Filter.WithRuntimeObserver()
	testEach(scalarF, blobs)
	batchF, batchRO := dec.Filter.WithRuntimeObserver()
	testAll(batchF, blobs)

	ss, bs := scalarRO.Stats(), batchRO.Stats()
	for i := range ss {
		if ss[i] != bs[i] {
			t.Fatalf("leaf %d: scalar stats %+v != batch stats %+v", i, ss[i], bs[i])
		}
	}
}

// Under inverted stream statistics, Reoptimize flips the conjunction's
// short-circuit order, lowers the modeled cost, and keeps outcomes
// byte-identical on every blob.
func TestReoptimizeFlipsOrderUnderDrift(t *testing.T) {
	o, dec := reoptDecision(t)
	obsF, ro := dec.Filter.WithRuntimeObserver()
	stream := testkit.DriftBlobs(400)
	testAll(obsF, stream)
	if d := ro.MaxDivergence(50); d < 0.3 {
		t.Fatalf("drift stream divergence = %v, want substantial", d)
	}
	re, err := o.Reoptimize(obsF, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !re.Changed {
		t.Fatalf("re-optimization did not reorder; expr %q, cost %v -> %v", re.Expr, re.OldCost, re.NewCost)
	}
	if re.NewCost >= re.OldCost {
		t.Fatalf("reorder did not lower modeled cost: %v -> %v", re.OldCost, re.NewCost)
	}
	if re.Expr == obsF.Name() || re.Filter.Name() != re.Expr {
		t.Fatalf("new expr rendering wrong: %q (old %q)", re.Expr, obsF.Name())
	}
	// Outcome equivalence on both the drifted stream and the original
	// distribution — only the per-blob cost attribution may differ.
	check := append(testkit.Blobs(300, 14), stream...)
	for _, b := range check {
		oldPass, _ := obsF.Test(b)
		newPass, _ := re.Filter.Test(b)
		if oldPass != newPass {
			t.Fatalf("blob %d: outcome changed across reorder", b.ID)
		}
	}
	// The reordered filter shares probes: further observation accumulates.
	before := ro.Stats()[0].Tested
	testAll(re.Filter, check[:1])
	var after uint64
	for _, st := range ro.Stats() {
		after += st.Tested
	}
	if after <= before {
		t.Fatal("reordered filter does not feed the original probes")
	}
}

// A stream matching the plan's statistics changes nothing: same filter
// pointer back, Changed=false.
func TestReoptimizeStableWithoutDrift(t *testing.T) {
	o, dec := reoptDecision(t)
	obsF, _ := dec.Filter.WithRuntimeObserver()
	testAll(obsF, testkit.Blobs(600, 11))
	re, err := o.Reoptimize(obsF, 50, nil)
	if err != nil {
		t.Fatal(err)
	}
	if re.Changed || re.Filter != obsF {
		t.Fatalf("stable stats reordered the plan: changed=%v", re.Changed)
	}
}

// MaxDivergence ignores leaves with fewer than minRows observations.
func TestMaxDivergenceMinRows(t *testing.T) {
	_, dec := reoptDecision(t)
	obsF, ro := dec.Filter.WithRuntimeObserver()
	testAll(obsF, testkit.DriftBlobs(10))
	if d := ro.MaxDivergence(1000); d != 0 {
		t.Fatalf("divergence with unmet minRows = %v, want 0", d)
	}
	if d := ro.MaxDivergence(5); d == 0 {
		t.Fatal("divergence with met minRows should be nonzero under drift")
	}
}

// mapScoreCache is the simplest possible ScoreCache for composition tests.
type mapScoreCache map[scoreKey]float64

type scoreKey struct {
	pp *core.PP
	id int
}

func (m mapScoreCache) GetBatch(pp *core.PP, ids []int, scores []float64, miss []int) []int {
	for i, id := range ids {
		if v, ok := m[scoreKey{pp, id}]; ok {
			scores[i] = v
		} else {
			miss = append(miss, i)
		}
	}
	return miss
}
func (m mapScoreCache) PutBatch(pp *core.PP, ids []int, scores []float64) {
	for i, id := range ids {
		m[scoreKey{pp, id}] = scores[i]
	}
}

// WithScoreCache composed after WithRuntimeObserver keeps the probes wired.
func TestObserverComposesWithScoreCache(t *testing.T) {
	_, dec := reoptDecision(t)
	obsF, ro := dec.Filter.WithRuntimeObserver()
	cached := obsF.WithScoreCache(mapScoreCache{})
	testAll(cached, testkit.Blobs(100, 15))
	if ro.Stats()[0].Tested != 100 {
		t.Fatalf("probe lost through WithScoreCache: tested = %d", ro.Stats()[0].Tested)
	}
}

// A leaf nobody reached reports its planned reduction (zero divergence), not
// NaN.
func TestObservedReductionNoRows(t *testing.T) {
	st := LeafStat{PlannedReduction: 0.4}
	if r := st.ObservedReduction(); r != 0.4 || math.IsNaN(r) {
		t.Fatalf("unobserved leaf reduction = %v, want planned 0.4", r)
	}
}
