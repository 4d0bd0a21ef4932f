package engine

import (
	"fmt"
	"sync"
	"testing"

	"probpred/internal/blob"
)

// Regression tests for per-run accounting on SHARED plans: serving mode
// executes one compiled Plan object from many sessions at once, and the
// engine's PerOp cache counters and wall times must describe each Run alone.
// The original design read cumulative counters off the shared filter and
// diffed them around the operator, which interleaves concurrent runs'
// lookups; these tests fail under that scheme (and under -race for any
// unsynchronized variant).

// sharedScores is a concurrency-safe score memo shared across runs, playing
// the role of the optimizer's ScoreCache.
type sharedScores struct {
	mu sync.RWMutex
	m  map[int]float64
}

func newSharedScores() *sharedScores { return &sharedScores{m: map[int]float64{}} }

func (s *sharedScores) get(id int) (float64, bool) {
	s.mu.RLock()
	v, ok := s.m[id]
	s.mu.RUnlock()
	return v, ok
}

func (s *sharedScores) put(id int, v float64) {
	s.mu.Lock()
	s.m[id] = v
	s.mu.Unlock()
}

// cachedThresh is the x>t filter resolving its scores through a shared memo,
// counting each lookup on the caller's per-run tally.
type cachedThresh struct {
	thresholdFilter
	c *sharedScores
}

func (f cachedThresh) TestBatch(blobs []blob.Blob, pass []bool, cost []float64, ct *CacheTally) {
	for i, b := range blobs {
		v, ok := f.c.get(b.ID)
		if ok {
			ct.Hit(1)
		} else {
			v, _ = b.TruthVal(f.col)
			f.c.put(b.ID, v)
			ct.Miss(1)
		}
		pass[i], cost[i] = v > f.t, f.cost
	}
}

// runSharedPlanTest warms the cache with one run, then executes the same
// Plan object as the given number of sessions at once and checks each
// result's PP-filter
// OpStats in isolation: exactly rowsIn cache lookups, all hits after warmup,
// per-run cost and output rows identical to the warmup run.
func runSharedPlanTest(t *testing.T, filter BlobFilter, runs int) {
	t.Helper()
	const n = 200
	plan := Plan{Ops: []Operator{&Scan{Blobs: makeBlobs(n)}, &PPFilter{F: filter}}}
	cfg := Config{NoStageOverhead: true}

	ppStats := func(r *Result) OpStats {
		t.Helper()
		for _, op := range r.PerOp {
			if op.PPFilter {
				return op
			}
		}
		t.Fatal("no PPFilter OpStats in result")
		return OpStats{}
	}

	warm, err := Run(plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ws := ppStats(warm)
	if ws.CacheHits != 0 || ws.CacheMisses != n {
		t.Fatalf("warmup run: hits=%d misses=%d, want 0/%d", ws.CacheHits, ws.CacheMisses, n)
	}

	results := make([]*Result, runs)
	errs := make([]error, runs)
	sessions(runs, func(i int) { results[i], errs[i] = Run(plan, cfg) })
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
	}
	for i, r := range results {
		s := ppStats(r)
		// Every lookup must hit the warmed cache and be counted exactly once
		// for THIS run; interleaved accounting would inflate some runs and
		// starve others.
		if s.CacheHits != n || s.CacheMisses != 0 {
			t.Errorf("run %d: hits=%d misses=%d, want %d/0", i, s.CacheHits, s.CacheMisses, n)
		}
		if s.WallNS < 0 {
			t.Errorf("run %d: negative WallNS %d", i, s.WallNS)
		}
		if s.Cost != ws.Cost {
			t.Errorf("run %d: PP cost %v, want %v", i, s.Cost, ws.Cost)
		}
		if r.ClusterTime != warm.ClusterTime {
			t.Errorf("run %d: cluster time %v, want %v", i, r.ClusterTime, warm.ClusterTime)
		}
		if len(r.Rows) != len(warm.Rows) {
			t.Fatalf("run %d: %d rows, want %d", i, len(r.Rows), len(warm.Rows))
		}
		for j := range r.Rows {
			if r.Rows[j].Blob.ID != warm.Rows[j].Blob.ID {
				t.Fatalf("run %d row %d: blob %d, want %d", i, j, r.Rows[j].Blob.ID, warm.Rows[j].Blob.ID)
			}
		}
	}
}

// TestSharedPlanCacheCountersBatchParallel runs the shared-plan check with
// one session (workers=1) and with four at once (workers=4), every session
// the one writer of its run's tally.
func TestSharedPlanCacheCountersBatchParallel(t *testing.T) {
	for _, sessions := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", sessions), func(t *testing.T) {
			f := cachedThresh{thresholdFilter: thresholdFilter{col: "x", t: 49, cost: 1}, c: newSharedScores()}
			runSharedPlanTest(t, f, sessions)
		})
	}
}

// TestUncachedFilterReportsZeroCounters pins the quiet-default contract:
// filters without cache awareness leave both counters at zero.
func TestUncachedFilterReportsZeroCounters(t *testing.T) {
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(50)},
		&PPFilter{F: thresholdFilter{col: "x", t: 10, cost: 1}},
	}}
	res, err := Run(plan, Config{NoStageOverhead: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range res.PerOp {
		if op.CacheHits != 0 || op.CacheMisses != 0 {
			t.Fatalf("op %s: hits=%d misses=%d, want 0/0", op.Name, op.CacheHits, op.CacheMisses)
		}
	}
}
