package engine

import (
	"errors"
	"testing"

	"probpred/internal/blob"
	"probpred/internal/query"
)

// TestParallelExecutionMatchesSequential: same rows, same order, same
// virtual costs at any worker count.
func TestParallelExecutionMatchesSequential(t *testing.T) {
	blobs := makeBlobs(503) // odd size exercises ragged chunking
	mk := func(workers int) *Result {
		plan := Plan{Ops: []Operator{
			&Scan{Blobs: blobs},
			&PPFilter{F: thresholdFilter{col: "x", t: 99, cost: 1}},
			&Process{P: fakeUDF{name: "U", cost: 7, col: "x"}},
			&Select{Pred: query.MustParse("x>250")},
		}}
		res, err := Run(plan, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := mk(1)
	for _, workers := range []int{2, 4, 8} {
		par := mk(workers)
		if par.ClusterTime != seq.ClusterTime {
			t.Fatalf("workers=%d: cluster time %v vs %v", workers, par.ClusterTime, seq.ClusterTime)
		}
		if len(par.Rows) != len(seq.Rows) {
			t.Fatalf("workers=%d: rows %d vs %d", workers, len(par.Rows), len(seq.Rows))
		}
		for i := range par.Rows {
			if par.Rows[i].Blob.ID != seq.Rows[i].Blob.ID {
				t.Fatalf("workers=%d: row order diverged at %d", workers, i)
			}
		}
	}
}

func TestParallelProcessErrorPropagates(t *testing.T) {
	// A blob without truth makes the UDF fail inside a worker goroutine.
	blobs := makeBlobs(100)
	blobs[57] = blob.Blob{ID: 57} // no Truth
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: blobs},
		&Process{P: fakeUDF{name: "U", cost: 1, col: "x"}},
	}}
	if _, err := Run(plan, Config{Workers: 4}); err == nil {
		t.Fatal("expected worker error to propagate")
	}
}

// TestParallelRetryMatchesSequential: transient faults plus retries must
// yield identical rows and virtual costs at any worker count (chunk-order
// cost summation keeps the accounting deterministic).
func TestParallelRetryMatchesSequential(t *testing.T) {
	const n = 403
	fails := map[int]int{}
	for id := 0; id < n; id += 11 {
		fails[id] = 1 + id%2 // every 11th blob fails once or twice
	}
	cfg := func(workers int) Config {
		return Config{Workers: workers,
			Retry: RetryPolicy{MaxAttempts: 4, BackoffBaseMS: 25, BackoffFactor: 2}}
	}
	mk := func(workers int) *Result {
		f := &flakyUDF{fakeUDF: fakeUDF{name: "U", cost: 9, col: "x"}, fails: copyFails(fails)}
		plan := Plan{Ops: []Operator{
			&Scan{Blobs: makeBlobs(n)},
			&Process{P: f},
			&Select{Pred: query.MustParse("x>=0")},
		}}
		res, err := Run(plan, cfg(workers))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq := mk(1)
	if len(seq.Rows) != n {
		t.Fatalf("sequential rows = %d, want %d", len(seq.Rows), n)
	}
	for _, workers := range []int{2, 4, 8} {
		par := mk(workers)
		if par.ClusterTime != seq.ClusterTime {
			t.Fatalf("workers=%d: cluster time %v vs %v", workers, par.ClusterTime, seq.ClusterTime)
		}
		if len(par.Rows) != len(seq.Rows) {
			t.Fatalf("workers=%d: rows %d vs %d", workers, len(par.Rows), len(seq.Rows))
		}
		for i := range par.Rows {
			if par.Rows[i].Blob.ID != seq.Rows[i].Blob.ID {
				t.Fatalf("workers=%d: row order diverged at %d", workers, i)
			}
		}
	}
}

func copyFails(m map[int]int) map[int]int {
	out := make(map[int]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// TestParallelErrorMidBatch: a processor that exhausts its retry budget in
// the middle of one worker's chunk must fail the run with full attribution
// while other workers keep processing their chunks (exercised under -race
// in CI).
func TestParallelErrorMidBatch(t *testing.T) {
	const n = 240
	f := &flakyUDF{fakeUDF: fakeUDF{name: "U", cost: 3, col: "x"},
		fails: map[int]int{157: 99}} // always fails: exhausts any budget
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(n)},
		&Process{P: f},
	}}
	_, err := Run(plan, Config{Workers: 4,
		Retry: RetryPolicy{MaxAttempts: 3, BackoffBaseMS: 1}})
	if err == nil {
		t.Fatal("expected mid-batch failure to propagate")
	}
	var oe *OpError
	if !errors.As(err, &oe) {
		t.Fatalf("error %v is not an OpError", err)
	}
	if oe.Op != "U" || oe.Stage != 0 {
		t.Fatalf("attribution = stage %d op %q", oe.Stage, oe.Op)
	}
}

// TestParallelPermanentErrorMidBatch: non-transient failures short-circuit
// without retries on the parallel path too.
func TestParallelPermanentErrorMidBatch(t *testing.T) {
	const n = 200
	f := &flakyUDF{fakeUDF: fakeUDF{name: "U", cost: 3, col: "x"},
		fails: map[int]int{31: 1}, permanent: true}
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(n)},
		&Process{P: f},
	}}
	_, err := Run(plan, Config{Workers: 8, Retry: RetryPolicy{MaxAttempts: 5}})
	if err == nil {
		t.Fatal("expected failure")
	}
	f.mu.Lock()
	attempts := f.attempts[31]
	f.mu.Unlock()
	if attempts != 1 {
		t.Fatalf("blob 31 attempts = %d: permanent errors must not be retried", attempts)
	}
}

func TestChunkBounds(t *testing.T) {
	cases := []struct {
		n, size    int
		wantChunks int
	}{
		{10, 5, 2}, {10, 4, 3}, {3, 1, 3}, {1, 4, 1}, {100, 15, 7},
		{0, 4, 1}, // an empty input is one empty chunk: the prefix still executes
	}
	for _, c := range cases {
		bounds := chunkBounds(c.n, c.size)
		if len(bounds) != c.wantChunks {
			t.Errorf("chunkBounds(%d,%d) = %d chunks, want %d",
				c.n, c.size, len(bounds), c.wantChunks)
		}
		covered := 0
		prevEnd := 0
		for _, b := range bounds {
			if b[0] != prevEnd {
				t.Errorf("chunkBounds(%d,%d): gap at %v", c.n, c.size, b)
			}
			covered += b[1] - b[0]
			prevEnd = b[1]
		}
		if covered != c.n {
			t.Errorf("chunkBounds(%d,%d) covers %d", c.n, c.size, covered)
		}
	}
}

func TestSmallInputStaysSequential(t *testing.T) {
	// Fewer than 2×workers rows: the sequential path runs (no goroutine
	// overhead for tiny batches). Behaviour must be identical either way.
	blobs := makeBlobs(5)
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: blobs},
		&Process{P: fakeUDF{name: "U", cost: 1, col: "x"}},
	}}
	res, err := Run(plan, Config{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
}
