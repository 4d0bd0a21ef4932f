package engine

import (
	"fmt"
	"math"
	"testing"

	"probpred/internal/query"
)

// checkLedger asserts the one-ledger invariant on a Result: PerOp costs sum
// to ClusterTime (within relTol of it; zero demands bit equality), and the
// cardinalities chain — nothing enters the source, each operator consumes
// what its predecessor produced, and the last operator's output is the
// result.
func checkLedger(t *testing.T, res *Result, relTol float64) {
	t.Helper()
	sum := 0.0
	for i, op := range res.PerOp {
		sum += op.Cost
		wantIn := 0
		if i > 0 {
			wantIn = res.PerOp[i-1].RowsOut
		}
		if op.RowsIn != wantIn {
			t.Errorf("PerOp[%d] %s: %d rows in, predecessor produced %d", i, op.Name, op.RowsIn, wantIn)
		}
	}
	if math.Abs(sum-res.ClusterTime) > relTol*res.ClusterTime {
		t.Errorf("sum(PerOp.Cost) = %v, ClusterTime = %v (tolerance %g)", sum, res.ClusterTime, relTol)
	}
	if last := res.PerOp[len(res.PerOp)-1]; last.RowsOut != len(res.Rows) {
		t.Errorf("last operator produced %d rows, result has %d", last.RowsOut, len(res.Rows))
	}
}

// TestLedgerInvariant: PerOp is the run's only ledger, so it must account
// for the whole run on every path into the run loop. Costs are chosen not to
// be exactly representable, so a second accumulator would be caught drifting.
// (The failing-run row of the matrix is TestFailedRunSpansCarryCost: a failed
// run has no Result, its spans are its ledger.)
func TestLedgerInvariant(t *testing.T) {
	plan := func(udf func() Processor) Plan {
		return Plan{Ops: []Operator{
			&Scan{Blobs: makeBlobs(200)},
			&PPFilter{F: thresholdFilter{col: "x", t: 19, cost: 0.3}},
			&Process{P: udf()},
			&Process{P: udf()}, // a repeated Name() must not merge two positions
			&Select{Pred: query.MustParse("x>30")},
			&GroupReduce{R: countReducer{keyCol: "x"}},
		}}
	}
	plainUDF := func() Processor { return fakeUDF{name: "U", cost: 0.7, col: "x"} }
	// Every tenth blob's first attempt fails transiently.
	flakyUDF := func() Processor {
		fails := map[int]int{}
		for id := 0; id < 200; id += 10 {
			fails[id] = 1
		}
		return &flakyUDF{fakeUDF: fakeUDF{name: "U", cost: 0.7, col: "x"}, fails: fails}
	}
	modes := []struct {
		name   string
		relTol float64
		// retries (per UDF position) is what the mode must have exercised
		// for its row to mean anything.
		retries int
		run     func(cfg Config) (*Result, error)
	}{
		{"plain", 0, 0, func(cfg Config) (*Result, error) { return Run(plan(plainUDF), cfg) }},
		// The filter passes blobs 20..199, 18 of them flaky.
		{"faults-retried", 0, 18, func(cfg Config) (*Result, error) {
			cfg.Retry = RetryPolicy{MaxAttempts: 3, BackoffBaseMS: 0.9}
			return Run(plan(flakyUDF), cfg)
		}},
	}
	for _, mode := range modes {
		// workers=N runs the mode as N sessions at once, each on its own
		// goroutine with its own plan, and holds every session's ledger.
		for _, n := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", mode.name, n), func(t *testing.T) {
				results := make([]*Result, n)
				errs := make([]error, n)
				sessions(n, func(i int) { results[i], errs[i] = mode.run(Config{}) })
				for i, res := range results {
					if errs[i] != nil {
						t.Fatalf("session %d: %v", i, errs[i])
					}
					checkLedger(t, res, mode.relTol)
					u1, u2 := res.PerOp[2], res.PerOp[3]
					if u1.Name != "U" || u2.Name != "U" || u1.Cost == 0 || u2.Cost == 0 {
						t.Fatalf("repeated-name positions not accounted separately: %+v, %+v", u1, u2)
					}
					if u1.Retries != mode.retries || u2.Retries != mode.retries {
						t.Fatalf("retries = %d, %d; want %d at each position", u1.Retries, u2.Retries, mode.retries)
					}
				}
			})
		}
	}
}

// TestRunEmitsMetrics: a run's numbers are its PerOp ledger, one row per plan
// position: each operator's cardinalities, the PP filter's tested and passed
// counts among them, and a wall time.
func TestRunEmitsMetrics(t *testing.T) {
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(100)},
		&PPFilter{F: thresholdFilter{col: "x", t: 49, cost: 1}},
		&Process{P: fakeUDF{name: "XExtract", cost: 5, col: "x"}},
		&Select{Pred: query.MustParse("x>=60")},
	}}
	res, err := Run(plan, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerOp) != 4 {
		t.Fatalf("PerOp = %d entries", len(res.PerOp))
	}
	// The PP filter tested the whole scan output and passed x>49: 50 rows.
	want := [][2]int{{0, 100}, {100, 50}, {50, 50}, {50, 40}}
	for i, op := range res.PerOp {
		if op.RowsIn != want[i][0] || op.RowsOut != want[i][1] {
			t.Fatalf("PerOp[%d] %s rows %d → %d, want %d → %d", i, op.Name, op.RowsIn, op.RowsOut, want[i][0], want[i][1])
		}
		if op.WallNS < 0 {
			t.Fatalf("PerOp[%d].WallNS negative", i)
		}
		if op.PPFilter != (i == 1) {
			t.Fatalf("PerOp[%d].PPFilter = %v", i, op.PPFilter)
		}
	}
}
