package engine

import (
	"errors"
	"sync"
	"testing"

	"probpred/internal/blob"
	"probpred/internal/query"
)

// A run executes on its caller's goroutine; the concurrency the engine sees
// is sessions, many Runs at once, sharing plans, processors and the row
// stage's buffer pool the way a server does. These tests run sessions in
// parallel and hold each to the same run alone.

// sessions calls fn(0) … fn(n-1) on n goroutines at once and waits for them.
func sessions(n int, fn func(i int)) {
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
}

// sameRun fails the test unless got has want's rows, in order, and its
// ClusterTime.
func sameRun(t *testing.T, who string, got, want *Result) {
	t.Helper()
	if got.ClusterTime != want.ClusterTime {
		t.Fatalf("%s: cluster time %v, alone %v", who, got.ClusterTime, want.ClusterTime)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: rows %d, alone %d", who, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if got.Rows[i].Blob.ID != want.Rows[i].Blob.ID {
			t.Fatalf("%s: row order diverged at %d", who, i)
		}
	}
}

// TestParallelExecutionMatchesSequential: sessions executing one shared plan
// object at once each get the rows, order and virtual cost of a run alone.
func TestParallelExecutionMatchesSequential(t *testing.T) {
	blobs := makeBlobs(503)
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: blobs},
		&PPFilter{F: thresholdFilter{col: "x", t: 99, cost: 1}},
		&Process{P: fakeUDF{name: "U", cost: 7, col: "x"}},
		&Select{Pred: query.MustParse("x>250")},
	}}
	seq, err := Run(plan, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	res := make([]*Result, n)
	errs := make([]error, n)
	sessions(n, func(i int) { res[i], errs[i] = Run(plan, Config{}) })
	for i := range n {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		sameRun(t, "session", res[i], seq)
	}
}

// TestParallelProcessErrorPropagates: a UDF failing inside a session fails
// that session's run, whatever else runs beside it.
func TestParallelProcessErrorPropagates(t *testing.T) {
	blobs := makeBlobs(100)
	blobs[57] = blob.Blob{ID: 57} // no Truth
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: blobs},
		&Process{P: fakeUDF{name: "U", cost: 1, col: "x"}},
	}}
	const n = 4
	errs := make([]error, n)
	sessions(n, func(i int) { _, errs[i] = Run(plan, Config{}) })
	for i, err := range errs {
		if err == nil {
			t.Fatalf("session %d: expected the UDF's error to propagate", i)
		}
	}
}

// TestParallelRetryMatchesSequential: transient faults plus retries yield
// the rows and virtual cost of a run alone when sessions, each with its own
// flaky UDF, run at once.
func TestParallelRetryMatchesSequential(t *testing.T) {
	const n = 403
	fails := map[int]int{}
	for id := 0; id < n; id += 11 {
		fails[id] = 1 + id%2 // every 11th blob fails once or twice
	}
	cfg := Config{Retry: RetryPolicy{MaxAttempts: 4, BackoffBaseMS: 25, BackoffFactor: 2}}
	run := func() (*Result, error) {
		f := &flakyUDF{fakeUDF: fakeUDF{name: "U", cost: 9, col: "x"}, fails: copyFails(fails)}
		return Run(Plan{Ops: []Operator{
			&Scan{Blobs: makeBlobs(n)},
			&Process{P: f},
			&Select{Pred: query.MustParse("x>=0")},
		}}, cfg)
	}
	seq, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Rows) != n {
		t.Fatalf("sequential rows = %d, want %d", len(seq.Rows), n)
	}
	const k = 4
	res := make([]*Result, k)
	errs := make([]error, k)
	sessions(k, func(i int) { res[i], errs[i] = run() })
	for i := range k {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		sameRun(t, "session", res[i], seq)
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
// the middle of one session's input fails that session with full
// attribution, while the sessions beside it, over inputs without the
// failing blob, complete.
func TestParallelErrorMidBatch(t *testing.T) {
	const n = 240
	f := &flakyUDF{fakeUDF: fakeUDF{name: "U", cost: 3, col: "x"},
		fails: map[int]int{157: 99}} // always fails: exhausts any budget
	cfg := Config{Retry: RetryPolicy{MaxAttempts: 3, BackoffBaseMS: 1}}
	blobs := makeBlobs(n)
	const k = 4
	res := make([]*Result, k)
	errs := make([]error, k)
	sessions(k, func(i int) {
		in := blobs // session 0 meets blob 157; the others stop before it
		if i > 0 {
			in = blobs[:150]
		}
		res[i], errs[i] = Run(Plan{Ops: []Operator{&Scan{Blobs: in}, &Process{P: f}}}, cfg)
	})
	var oe *OpError
	if !errors.As(errs[0], &oe) {
		t.Fatalf("error %v is not an OpError", errs[0])
	}
	if oe.Op != "U" || oe.Stage != 0 {
		t.Fatalf("attribution = stage %d op %q", oe.Stage, oe.Op)
	}
	for i := 1; i < k; i++ {
		if errs[i] != nil || len(res[i].Rows) != 150 {
			t.Fatalf("session %d beside the failing one: error %v", i, errs[i])
		}
	}
}

// TestParallelPermanentErrorMidBatch: non-transient failures short-circuit
// without retries in every session sharing the processor: each attempts
// the failing blob once.
func TestParallelPermanentErrorMidBatch(t *testing.T) {
	const n = 200
	f := &flakyUDF{fakeUDF: fakeUDF{name: "U", cost: 3, col: "x"},
		fails: map[int]int{31: 1 << 20}, permanent: true}
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(n)},
		&Process{P: f},
	}}
	const k = 4
	errs := make([]error, k)
	sessions(k, func(i int) { _, errs[i] = Run(plan, Config{Retry: RetryPolicy{MaxAttempts: 5}}) })
	for i, err := range errs {
		if err == nil {
			t.Fatalf("session %d: expected failure", i)
		}
	}
	f.mu.Lock()
	attempts := f.attempts[31]
	f.mu.Unlock()
	if attempts != k {
		t.Fatalf("blob 31 attempts = %d over %d sessions: permanent errors must not be retried", attempts, k)
	}
}
