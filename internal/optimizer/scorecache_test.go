package optimizer

import (
	"testing"

	"probpred/internal/engine"
	"probpred/internal/query"
	"probpred/internal/testkit"
)

// cacheLookups evaluates a filter over blobs through TestBatch with a
// per-run tally and returns the score-cache lookups it counted (hits+misses)
// plus the pass transcript.
func cacheLookups(f *Compiled, n int) (lookups uint64, transcript []bool) {
	blobs := testkit.Blobs(n, 19)
	transcript = make([]bool, n)
	var ct engine.CacheTally
	f.TestBatch(blobs, transcript, make([]float64, n), &ct)
	hits, misses := ct.Counts()
	return hits + misses, transcript
}

// TestWithScoreCacheDoesNotMutateReceiver: the clone consults the cache, the
// decision's own filter — shared by every session — still does not.
func TestWithScoreCacheDoesNotMutateReceiver(t *testing.T) {
	val := testkit.Blobs(600, 11)
	o := New(miniCorpus(t, val))
	dec, err := o.Optimize(query.MustParse("t=SUV & s>60"), Options{Accuracy: 1, UDFCost: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Inject || dec.NumPPs != 2 {
		t.Fatalf("want a two-PP injection, got inject=%v pps=%d", dec.Inject, dec.NumPPs)
	}
	const n = 200
	cached, cachedTranscript := cacheLookups(dec.Filter.WithScoreCache(NewScoreColumns(1<<10, false)), n)
	if cached == 0 {
		t.Fatal("cached filter drove no lookups; test is vacuous")
	}
	bare, transcript := cacheLookups(dec.Filter, n)
	if bare != 0 {
		t.Errorf("original filter gained cache counters: %d lookups", bare)
	}
	for i, pass := range transcript {
		if pass != cachedTranscript[i] {
			t.Fatalf("blob %d: uncached result %v diverged from cached %v", i, pass, cachedTranscript[i])
		}
	}
}
