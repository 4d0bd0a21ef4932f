package optimizer

import (
	"testing"

	"probpred/internal/blob"
	"probpred/internal/core"
	"probpred/internal/engine"
	"probpred/internal/mathx"
	"probpred/internal/query"
	"probpred/internal/testkit"
)

// compileMini optimizes a compound predicate over the mini corpus and returns
// the injected Compiled filter — conj/disj structure with short-circuit
// evaluation, the hardest case for batch/scalar cost equivalence.
func compileMini(t *testing.T, pred string, blobs []blob.Blob) *Compiled {
	t.Helper()
	c := miniCorpus(t, blobs)
	dec, err := New(c).Optimize(query.MustParse(pred), Options{
		Accuracy: 0.95, UDFCost: 100, Domains: testkit.Domains(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Inject || dec.Filter == nil {
		t.Fatalf("expected injection for %q: %+v", pred, dec)
	}
	return dec.Filter
}

// TestCompiledTestBatchMatchesTest checks the BlobFilter contract on
// real optimizer output: per-row pass verdicts and short-circuit-dependent
// costs must equal the scalar walk exactly.
func TestCompiledTestBatchMatchesTest(t *testing.T) {
	blobs := testkit.Blobs(1500, 21)
	for _, pred := range []string{
		"t=SUV & c=red",
		"t=SUV | t=van",
		"(t=SUV | t=van) & s>50",
		"t=SUV & (c=red | c=white) & s<70",
	} {
		t.Run(pred, func(t *testing.T) {
			f := compileMini(t, pred, blobs)
			pass := make([]bool, len(blobs))
			cost := make([]float64, len(blobs))
			// Two passes so the second runs over recycled pool scratch.
			for i := 0; i < 2; i++ {
				f.TestBatch(blobs, pass, cost, nil)
			}
			for i, b := range blobs {
				wantPass, wantCost := f.Test(b)
				if pass[i] != wantPass || cost[i] != wantCost {
					t.Fatalf("row %d: batch (%v, %v) scalar (%v, %v)",
						i, pass[i], cost[i], wantPass, wantCost)
				}
			}
		})
	}
}

// scalarOnly answers TestBatch from the scalar reference walk, one blob at a
// time, so the engine runs the reference where it would run the batch walk.
type scalarOnly struct{ f *Compiled }

func (s scalarOnly) Name() string { return s.f.Name() }
func (s scalarOnly) TestBatch(blobs []blob.Blob, pass []bool, cost []float64, _ *engine.CacheTally) {
	for i, b := range blobs {
		pass[i], cost[i] = s.f.Test(b)
	}
}

// testAll drives f over blobs in one TestBatch call, uncounted.
func testAll(f *Compiled, blobs []blob.Blob) (pass []bool, cost []float64) {
	pass = make([]bool, len(blobs))
	cost = make([]float64, len(blobs))
	f.TestBatch(blobs, pass, cost, nil)
	return pass, cost
}

// testEach drives f over blobs one at a time — a scalar test is a batch of
// one.
func testEach(f *Compiled, blobs []blob.Blob) {
	for i := range blobs {
		testAll(f, blobs[i:i+1])
	}
}

// TestPPFilterBatchEquivalence runs the same plan through the batch walk and
// through the scalar reference, sequentially and with Workers=4 (under -race this also proves the
// pooled buffers are race-free): output rows, row order and the full Stats
// accounting must be identical.
func TestPPFilterBatchEquivalence(t *testing.T) {
	blobs := testkit.Blobs(2000, 33)
	f := compileMini(t, "(t=SUV | t=van) & s>50", blobs)
	run := func(filter engine.BlobFilter, workers int) *engine.Result {
		res, err := engine.Run(engine.Plan{Ops: []engine.Operator{
			&engine.Scan{Blobs: blobs},
			&engine.PPFilter{F: filter},
		}}, engine.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Compare batch against scalar at the same worker count: chunked cost
	// summation already reorders float additions across worker counts, so
	// cross-count totals may differ in the last ulp — the batch path's
	// contract is per-row and per-chunk identity.
	for _, workers := range []int{1, 4} {
		want := run(scalarOnly{f}, workers)
		got := run(f, workers)
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("workers=%d: %d rows, scalar %d", workers, len(got.Rows), len(want.Rows))
		}
		for i := range got.Rows {
			if got.Rows[i].Blob.ID != want.Rows[i].Blob.ID {
				t.Fatalf("workers=%d row %d: blob %d, scalar %d",
					workers, i, got.Rows[i].Blob.ID, want.Rows[i].Blob.ID)
			}
		}
		if got.ClusterTime != want.ClusterTime {
			t.Fatalf("workers=%d: cluster time %v, scalar %v",
				workers, got.ClusterTime, want.ClusterTime)
		}
		for i := range got.PerOp {
			if got.PerOp[i].Cost != want.PerOp[i].Cost {
				t.Fatalf("workers=%d: op %s cost %v, scalar %v",
					workers, got.PerOp[i].Name, got.PerOp[i].Cost, want.PerOp[i].Cost)
			}
		}
	}
}

// TestPPFilterBatchEquivalenceTrainedPPs repeats the engine equivalence with
// a trained Raw+SVM PP, so a production batch kernel — not the kit's
// row-by-row ScoreBatch — is what runs inside TestBatch.
func TestPPFilterBatchEquivalenceTrainedPPs(t *testing.T) {
	set := testkit.Set(t, testkit.Blobs(1200, 77), "s>50")
	train, val, rest := set.Split(mathx.NewRNG(5), 0.4, 0.3)
	pp, err := core.Train("s>50", train, val, core.TrainConfig{Approach: "Raw+SVM", Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCorpus()
	c.Add(pp)
	dec, err := New(c).Optimize(query.MustParse("s>50"), Options{Accuracy: 0.95, UDFCost: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Inject {
		t.Fatalf("expected injection: %+v", dec)
	}
	blobs := rest.Blobs
	pass, cost := testAll(dec.Filter, blobs)
	for i, b := range blobs {
		wantPass, wantCost := dec.Filter.Test(b)
		if pass[i] != wantPass || cost[i] != wantCost {
			t.Fatalf("row %d: batch (%v, %v) scalar (%v, %v)",
				i, pass[i], cost[i], wantPass, wantCost)
		}
	}
}

// TestBatchScratchClearsWhatLeavesWrote: a released scratch keeps no blob
// reference (the pool must not pin data), and its clear covers only what
// the leaves gathered — a batch the score cache serves whole gathers
// nothing, so nothing needs clearing.
func TestBatchScratchClearsWhatLeavesWrote(t *testing.T) {
	blobs := testkit.Blobs(300, 5)
	f := compileMini(t, "t=SUV & c=red", blobs)
	cached := f.WithScoreCache(mapScoreCache{})
	pass := make([]bool, len(blobs))
	cost := make([]float64, len(blobs))
	run := func(c *Compiled) *batchScratch {
		s := &batchScratch{}
		act := make([]int, len(blobs))
		for i := range act {
			act[i] = i
		}
		clear(cost)
		c.node.testBatch(blobs, act, pass, cost, s, nil)
		return s
	}
	for _, tc := range []struct {
		name     string
		c        *Compiled
		gathered bool
	}{
		{"uncached", f, true},
		{"cold cache", cached, true},
		{"warm cache", cached, false},
	} {
		s := run(tc.c)
		if got := s.dirty > 0; got != tc.gathered || s.dirty > len(blobs) {
			t.Fatalf("%s: %d blobs marked written, want gathered=%v", tc.name, s.dirty, tc.gathered)
		}
		putBatchScratch(s)
		if s.dirty != 0 {
			t.Fatalf("%s: mark not reset on release", tc.name)
		}
		for i, b := range s.blobs[:cap(s.blobs)] {
			if b.Dense != nil || b.Sparse != nil || b.Truth != nil {
				t.Fatalf("%s: released scratch still holds blob %d at %d", tc.name, b.ID, i)
			}
		}
	}
}
