package engine

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"probpred/internal/query"
)

// flakyUDF fails each (blob, attempt) pair listed in fails with a transient
// error, and straggles (reports slow virtual durations) for blobs in slow.
// It mirrors what udf.FaultyProcessor does, without the udf dependency.
type flakyUDF struct {
	fakeUDF
	// fails[blobID] is how many leading attempts fail for that blob.
	fails map[int]int
	// slow[blobID] is the virtual duration reported for that blob's
	// successful attempts (0 means the nominal cost).
	slow map[int]float64
	// permanent makes failures non-transient.
	permanent bool

	mu       sync.Mutex
	attempts map[int]int
	calls    int
}

type flakyErr struct {
	transient bool
}

func (e *flakyErr) Error() string   { return "flaky failure" }
func (e *flakyErr) Transient() bool { return e.transient }

// ApplyTimed runs the batch's rows in order and, as the contract asks, runs
// a failing or straggling attempt alone: it stops before one that is not
// the batch's first, and right after one that is.
func (f *flakyUDF) ApplyTimed(b Batch, elapsed []float64) ([]float64, error) {
	for i := range b.Len() {
		id := b.Blob(i).ID
		f.mu.Lock()
		if f.attempts == nil {
			f.attempts = map[int]int{}
		}
		attempt := f.attempts[id] + 1
		fail, slow := attempt <= f.fails[id], f.slow[id] > f.cost
		if i > 0 && (fail || slow) {
			f.mu.Unlock()
			return elapsed, nil
		}
		f.attempts[id] = attempt
		f.calls++
		f.mu.Unlock()
		if fail {
			return append(elapsed, f.cost), &RowError{Index: i, Err: &flakyErr{transient: !f.permanent}}
		}
		e := f.cost
		if s := f.slow[id]; s > 0 {
			e = s
		}
		err := f.fakeUDF.Apply(b.Slice(i, i+1))
		elapsed = append(elapsed, e)
		if err != nil {
			return elapsed, &RowError{Index: i, Err: errors.Unwrap(err)}
		}
		if slow {
			return elapsed, nil
		}
	}
	return elapsed, nil
}

func runFlaky(t *testing.T, f *flakyUDF, n int, cfg Config) (*Result, error) {
	t.Helper()
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(n)},
		&Process{P: f},
		&Select{Pred: query.MustParse("x>=0")},
	}}
	return Run(plan, cfg)
}

func TestRetryRecoversTransientFaults(t *testing.T) {
	mkFlaky := func(fails map[int]int) *flakyUDF {
		return &flakyUDF{fakeUDF: fakeUDF{name: "U", cost: 10, col: "x"}, fails: fails}
	}
	ref, err := runFlaky(t, mkFlaky(nil), 50, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fails := map[int]int{3: 1, 17: 2, 42: 1}
	cfg := Config{Retry: RetryPolicy{MaxAttempts: 4, BackoffBaseMS: 100, BackoffFactor: 2}}
	res, err := runFlaky(t, mkFlaky(fails), 50, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(ref.Rows) {
		t.Fatalf("rows = %d, want %d", len(res.Rows), len(ref.Rows))
	}
	for i := range res.Rows {
		if res.Rows[i].Blob.ID != ref.Rows[i].Blob.ID {
			t.Fatalf("row %d diverged", i)
		}
	}
	// Retry cost must be visible: 4 failed attempts at cost 10 plus
	// backoffs 100+100+200+100 = 500, so 540 extra virtual ms.
	want := ref.ClusterTime + 4*10 + 100 + (100 + 200) + 100
	if res.ClusterTime != want {
		t.Fatalf("cluster time = %v, want %v", res.ClusterTime, want)
	}
	if res.Latency <= ref.Latency {
		t.Fatal("retry cost must surface in latency")
	}
}

func TestRetryExhaustionNamesOperatorAndStage(t *testing.T) {
	f := &flakyUDF{fakeUDF: fakeUDF{name: "U", cost: 10, col: "x"},
		fails: map[int]int{5: 10}} // more failures than the attempt budget
	_, err := runFlaky(t, f, 20, Config{Retry: RetryPolicy{MaxAttempts: 3}})
	if err == nil {
		t.Fatal("expected exhaustion error")
	}
	var oe *OpError
	if !errors.As(err, &oe) {
		t.Fatalf("error %v is not an OpError", err)
	}
	if oe.Op != "U" || oe.Stage != 0 {
		t.Fatalf("attribution = stage %d op %q, want stage 0 op U", oe.Stage, oe.Op)
	}
	if !strings.Contains(err.Error(), "stage 0") || !strings.Contains(err.Error(), "U") {
		t.Fatalf("message lacks attribution: %v", err)
	}
	if f.calls != 5+3 {
		// Blobs 0-4 succeed first try, blob 5 burns the 3-attempt budget.
		t.Fatalf("calls = %d, want 8", f.calls)
	}
}

func TestPermanentErrorsAreNotRetried(t *testing.T) {
	f := &flakyUDF{fakeUDF: fakeUDF{name: "U", cost: 10, col: "x"},
		fails: map[int]int{2: 1}, permanent: true}
	_, err := runFlaky(t, f, 10, Config{Retry: RetryPolicy{MaxAttempts: 5}})
	if err == nil {
		t.Fatal("expected failure")
	}
	if f.calls != 3 {
		t.Fatalf("calls = %d: a permanent error must not be retried", f.calls)
	}
}

func TestNoRetryByDefault(t *testing.T) {
	f := &flakyUDF{fakeUDF: fakeUDF{name: "U", cost: 10, col: "x"},
		fails: map[int]int{0: 1}}
	if _, err := runFlaky(t, f, 10, Config{}); err == nil {
		t.Fatal("zero-value policy must not retry")
	}
	if f.calls != 1 {
		t.Fatalf("calls = %d, want 1", f.calls)
	}
}

func TestRowTimeoutTurnsStragglerIntoRetry(t *testing.T) {
	// Blob 7 straggles at 50x cost on its first attempt only; the timeout
	// kills it at the budget and the retry succeeds at nominal speed.
	f := &flakyUDF{fakeUDF: fakeUDF{name: "U", cost: 10, col: "x"},
		slow: map[int]float64{7: 500}}
	// The straggler map keys on blob, not attempt, so clear it after the
	// first pass via a wrapper: simplest is to allow one slow attempt by
	// draining the map from the test's side once observed. Instead, run
	// with a budget above the straggle: no retry happens, full cost charged.
	res, err := runFlaky(t, f, 20, Config{Retry: RetryPolicy{MaxAttempts: 3, RowTimeoutMS: 600}})
	if err != nil {
		t.Fatal(err)
	}
	if res.PerOp[1].Name != "U" || res.PerOp[1].Cost != 19*10+500 {
		t.Fatalf("straggle cost not charged: %+v", res.PerOp[1])
	}

	// Below-straggle budget: the attempt is killed at 200 virtual ms and
	// retried; the retry straggles again (slow keys on blob) and exhausts.
	f2 := &flakyUDF{fakeUDF: fakeUDF{name: "U", cost: 10, col: "x"},
		slow: map[int]float64{7: 500}}
	_, err = runFlaky(t, f2, 20, Config{Retry: RetryPolicy{MaxAttempts: 2, RowTimeoutMS: 200, BackoffBaseMS: 10}})
	if err == nil {
		t.Fatal("persistent straggler must exhaust the budget")
	}
	if !strings.Contains(err.Error(), "exceeding the 200 ms budget") {
		t.Fatalf("error should name the timeout: %v", err)
	}
	if !IsTransient(errors.Unwrap(err)) && !IsTransient(err) {
		t.Fatal("row timeout must be transient")
	}
}

func TestNoStageOverheadSentinel(t *testing.T) {
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(16)},
		&Process{P: fakeUDF{name: "U", cost: 16, col: "x"}},
	}}
	def, err := Run(plan, Config{})
	if err != nil {
		t.Fatal(err)
	}
	none, err := Run(plan, Config{NoStageOverhead: true})
	if err != nil {
		t.Fatal(err)
	}
	// One stage: default latency = work/16 + 15000, NoStageOverhead drops the 15000.
	if def.Latency != none.Latency+15000 {
		t.Fatalf("latency default %v vs none %v, want 15000 apart", def.Latency, none.Latency)
	}
	if none.Latency != none.ClusterTime/16 {
		t.Fatalf("overhead-free latency = %v, want pure work %v", none.Latency, none.ClusterTime/16)
	}
}

func TestSelectErrorAttribution(t *testing.T) {
	// A select over a missing column fails in stage 0 with the σ name.
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(4)},
		&Select{Pred: query.MustParse("missing>1")},
	}}
	_, err := Run(plan, Config{})
	if err == nil {
		t.Fatal("expected error")
	}
	var oe *OpError
	if !errors.As(err, &oe) {
		t.Fatalf("error %v is not an OpError", err)
	}
	if oe.Stage != 0 || !strings.Contains(oe.Op, "σ") {
		t.Fatalf("attribution = stage %d op %q", oe.Stage, oe.Op)
	}
}

// TestRetryMetricsCounted: a run's retried transient failures are counted on
// the retrying operator's PerOp row.
func TestRetryMetricsCounted(t *testing.T) {
	blobs := makeBlobs(40)
	udf := &flakyUDF{fakeUDF: fakeUDF{name: "F", cost: 1, col: "x"}, fails: map[int]int{3: 1, 17: 1}}
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: blobs},
		&Process{P: udf},
	}}
	res, err := Run(plan, Config{Retry: RetryPolicy{MaxAttempts: 3}})
	if err != nil {
		t.Fatalf("%v", err)
	}
	if res.PerOp[1].Retries != 2 {
		t.Fatalf("PerOp retries = %d, want 2", res.PerOp[1].Retries)
	}
}
