package optimizer

import (
	"slices"
	"sync"
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
func compileMini(t testing.TB, pred string, blobs []blob.Blob) *Compiled {
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
// costs must equal the scalar walk exactly. Batches run on the bitmap word
// edges (0, 1, 63, 64, 65, 1 023, 1 024, 1 025 rows), with blob IDs
// ascending, descending, gapped, duplicated and straddling a page and a
// directory chunk, through no score store, a cold one, the same one warm, a
// disabled one, and one of two pages that evicts as the batch fills it and
// then serves the batch reversed, its surviving pages first.
func TestCompiledTestBatchMatchesTest(t *testing.T) {
	// The pool's IDs run across a chunk boundary, 700 blobs in.
	pool := testkit.Blobs(3*1025, 21)
	for i := range pool {
		pool[i].ID += chunkSize*pageSize - 700
	}
	orders := []struct {
		name string
		pick func(n int) []blob.Blob
	}{
		{"ascending", func(n int) []blob.Blob { return pool[:n] }},
		{"descending", func(n int) []blob.Blob {
			out := slices.Clone(pool[:n])
			slices.Reverse(out)
			return out
		}},
		{"gapped", func(n int) []blob.Blob {
			out := make([]blob.Blob, n)
			for i := range out {
				out[i] = pool[3*i]
			}
			return out
		}},
		{"duplicated", func(n int) []blob.Blob {
			out := make([]blob.Blob, n)
			for i := range out {
				out[i] = pool[i/2+i%2*(n/3)]
			}
			return out
		}},
		{"straddling", func(n int) []blob.Blob { return pool[700-n/2 : 700-n/2+n] }},
	}
	for _, pred := range []string{
		"t=SUV & c=red",
		"t=SUV | t=van",
		"(t=SUV | t=van) & s>50",
		"t=SUV & (c=red | c=white) & s<70",
	} {
		t.Run(pred, func(t *testing.T) {
			f := compileMini(t, pred, pool)
			for _, n := range []int{0, 1, 63, 64, 65, 1023, 1024, 1025} {
				for _, o := range orders {
					blobs := o.pick(n)
					warm, tiny := NewScoreColumns(1<<10, false), NewScoreColumns(2, false)
					for _, st := range []struct {
						name    string
						store   *ScoreColumns
						reverse bool
					}{
						{"uncached", nil, false},
						{"cold", warm, false},
						{"warm", warm, false},
						{"disabled", NewScoreColumns(1<<10, true), false},
						{"two pages", tiny, false},
						// The pages the first pass left come first now.
						{"two pages reversed", tiny, true},
					} {
						if st.reverse {
							blobs = slices.Clone(blobs)
							slices.Reverse(blobs)
						}
						g := f.WithScoreCache(st.store)
						pass := make([]bool, n)
						cost := make([]float64, n)
						var ct engine.CacheTally
						g.TestBatch(blobs, pass, cost, &ct)
						for i, b := range blobs {
							wantPass, wantCost := f.Test(b)
							if pass[i] != wantPass || cost[i] != wantCost {
								t.Fatalf("%d %s %s row %d: batch (%v, %v) scalar (%v, %v)",
									n, o.name, st.name, i, pass[i], cost[i], wantPass, wantCost)
							}
						}
						hits, misses := ct.Counts()
						switch {
						case st.store == nil && hits+misses != 0,
							st.name == "warm" && misses != 0,
							st.name == "disabled" && hits != 0:
							t.Fatalf("%d %s %s: %d hits, %d misses", n, o.name, st.name, hits, misses)
						}
					}
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

// TestPPFilterBatchEquivalence runs the same plan through the batch walk and
// through the scalar reference, the batch walk as four sessions at once
// (under -race this also proves the pooled buffers are race-free): output
// rows, row order and the full PerOp accounting must be identical.
func TestPPFilterBatchEquivalence(t *testing.T) {
	blobs := testkit.Blobs(2000, 33)
	f := compileMini(t, "(t=SUV | t=van) & s>50", blobs)
	run := func(filter engine.BlobFilter) (*engine.Result, error) {
		return engine.Run(engine.Plan{Ops: []engine.Operator{
			&engine.Scan{Blobs: blobs},
			&engine.PPFilter{F: filter},
		}}, engine.Config{})
	}
	want, err := run(scalarOnly{f})
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 4
	got := make([]*engine.Result, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[s], errs[s] = run(f)
		}()
	}
	wg.Wait()
	for s, got := range got {
		if errs[s] != nil {
			t.Fatal(errs[s])
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("session %d: %d rows, scalar %d", s, len(got.Rows), len(want.Rows))
		}
		for i := range got.Rows {
			if got.Rows[i].Blob.ID != want.Rows[i].Blob.ID {
				t.Fatalf("session %d row %d: blob %d, scalar %d",
					s, i, got.Rows[i].Blob.ID, want.Rows[i].Blob.ID)
			}
		}
		if got.ClusterTime != want.ClusterTime {
			t.Fatalf("session %d: cluster time %v, scalar %v",
				s, got.ClusterTime, want.ClusterTime)
		}
		for i := range got.PerOp {
			if got.PerOp[i].Cost != want.PerOp[i].Cost {
				t.Fatalf("session %d: op %s cost %v, scalar %v",
					s, got.PerOp[i].Name, got.PerOp[i].Cost, want.PerOp[i].Cost)
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
// the leaves gathered — a batch its score columns serve whole gathers
// nothing, so nothing needs clearing.
func TestBatchScratchClearsWhatLeavesWrote(t *testing.T) {
	blobs := testkit.Blobs(300, 5)
	f := compileMini(t, "t=SUV & c=red", blobs)
	cached := f.WithScoreCache(NewScoreColumns(1<<10, false))
	cost := make([]float64, len(blobs))
	run := func(c *Compiled) *batchRun {
		r := &batchRun{blobs: blobs, cost: cost}
		nw := (len(blobs) + 63) >> 6
		act, out := r.bitmap(nw), r.bitmap(nw)
		for i := range blobs {
			act[i>>6] |= 1 << (i & 63)
		}
		clear(cost)
		c.node.testBatch(r, act, out)
		return r
	}
	for _, tc := range []struct {
		name     string
		c        *Compiled
		gathered bool
	}{
		{"uncached", f, true},
		{"cold columns", cached, true},
		{"warm columns", cached, false},
	} {
		r := run(tc.c)
		if got := r.dirty > 0; got != tc.gathered || r.dirty > len(blobs) {
			t.Fatalf("%s: %d blobs marked written, want gathered=%v", tc.name, r.dirty, tc.gathered)
		}
		putBatchRun(r)
		if r.dirty != 0 || r.top != 0 || r.blobs != nil || r.ids != nil {
			t.Fatalf("%s: marks or references not reset on release", tc.name)
		}
		for i, b := range r.gather[:cap(r.gather)] {
			if b.Dense != nil || b.Sparse != nil || b.Truth != nil {
				t.Fatalf("%s: released run still holds blob %d at %d", tc.name, b.ID, i)
			}
		}
	}
}

// BenchmarkCompiledTestBatchWarm times one TestBatch of a TRAF-shaped
// filter, a conjunction over a disjunction, on 20 000 blobs whose scores its
// columns already hold: the warm serving path, where every lookup hits.
func BenchmarkCompiledTestBatchWarm(b *testing.B) {
	blobs := testkit.Blobs(20000, 31)
	f := compileMini(b, "t=SUV & (c=red | c=white) & s<70", blobs).WithScoreCache(NewScoreColumns(1<<12, false))
	pass := make([]bool, len(blobs))
	cost := make([]float64, len(blobs))
	var ct engine.CacheTally
	f.TestBatch(blobs, pass, cost, &ct)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.TestBatch(blobs, pass, cost, &ct)
	}
}
