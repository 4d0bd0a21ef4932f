package optimizer

import (
	"testing"

	"probpred/internal/engine"
	"probpred/internal/query"
)

// cacheLookups evaluates a filter over blobs through TestBatch with a
// per-run tally and returns the score-cache lookups it counted (hits+misses)
// plus the pass transcript.
func cacheLookups(f *Compiled, n int) (lookups uint64, transcript []bool) {
	blobs := miniBlobs(n, 19)
	transcript = make([]bool, n)
	var ct engine.CacheTally
	f.TestBatch(blobs, transcript, make([]float64, n), &ct)
	hits, misses := ct.Counts()
	return hits + misses, transcript
}

// TestWithScoreCacheMinBypass: leaves cheaper than minCost bypass the cache —
// no counter traffic, identical results — while expensive leaves keep it.
// The mini corpus prices exact PPs at 1.0 vms and speed PPs at 1.2 vms, so a
// 1.1 threshold splits a (t=SUV & s>60) filter down the middle.
func TestWithScoreCacheMinBypass(t *testing.T) {
	val := miniBlobs(600, 11)
	o := New(miniCorpus(t, val))
	dec, err := o.Optimize(query.MustParse("t=SUV & s>60"), Options{Accuracy: 1, UDFCost: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Inject || dec.NumPPs != 2 {
		t.Fatalf("want a two-PP injection, got inject=%v pps=%d", dec.Inject, dec.NumPPs)
	}
	const n = 200

	baseLookups, baseTranscript := cacheLookups(dec.Filter.WithScoreCache(mapScoreCache{}), n)
	if baseLookups == 0 {
		t.Fatal("fully cached filter drove no lookups; test is vacuous")
	}

	// Threshold above both leaves: the clone caches nothing and counts
	// nothing.
	allBypass, transcript := cacheLookups(dec.Filter.WithScoreCacheMin(mapScoreCache{}, 10), n)
	if allBypass != 0 {
		t.Errorf("minCost=10 still drove %d cache lookups", allBypass)
	}
	for i, pass := range transcript {
		if pass != baseTranscript[i] {
			t.Fatalf("blob %d: full-bypass result %v diverged from cached %v", i, pass, baseTranscript[i])
		}
	}

	// Threshold between the leaf costs: only the 1.2-vms speed leaf counts.
	mixed, transcript := cacheLookups(dec.Filter.WithScoreCacheMin(mapScoreCache{}, 1.1), n)
	if mixed == 0 || mixed >= baseLookups {
		t.Errorf("minCost=1.1 lookups = %d, want in (0, %d)", mixed, baseLookups)
	}
	for i, pass := range transcript {
		if pass != baseTranscript[i] {
			t.Fatalf("blob %d: mixed-gate result %v diverged from cached %v", i, pass, baseTranscript[i])
		}
	}

	// minCost <= 0 is exactly WithScoreCache.
	zero, _ := cacheLookups(dec.Filter.WithScoreCacheMin(mapScoreCache{}, 0), n)
	if zero != baseLookups {
		t.Errorf("minCost=0 lookups = %d, want %d (cache everything)", zero, baseLookups)
	}

	// The receiver is never mutated: the original decision filter still has
	// no cache attached.
	bare, _ := cacheLookups(dec.Filter, n)
	if bare != 0 {
		t.Errorf("original filter gained cache counters: %d lookups", bare)
	}
}
