package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"probpred/internal/query"
)

// adaptivePlan builds scan → PP → UDF → select → count-by-parity, the shape
// RunAdaptive chunks: three row-local prefix ops and a stage-boundary suffix.
func adaptivePlan(n int, filterCost float64) Plan {
	return Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(n)},
		&PPFilter{F: thresholdFilter{col: "x", t: 9, cost: filterCost}},
		&Process{P: fakeUDF{name: "Expensive", cost: 10, col: "x"}},
		&Select{Pred: query.MustParse("x>9")},
		&GroupReduce{R: countReducer{keyCol: "x"}},
	}}
}

func renderRows(rows []Row) string {
	s := ""
	for _, r := range rows {
		s += fmt.Sprintf("%d:%v;", r.Blob.ID, r.Columns())
	}
	return s
}

// A decider that never swaps makes RunAdaptive a pure re-chunking of Run:
// rows, cluster time, latency and stage count must all be identical, at any
// worker count.
func TestRunAdaptiveMatchesRunWithoutSwap(t *testing.T) {
	plan := adaptivePlan(100, 1)
	want, err := Run(plan, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := RunAdaptive(plan, Config{Workers: workers}, AdaptiveConfig{
			ChunkRows: 16,
			Decide:    func(ChunkStats) (BlobFilter, error) { return nil, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		if renderRows(got.Rows) != renderRows(want.Rows) {
			t.Fatalf("workers=%d: adaptive rows diverged", workers)
		}
		if got.ClusterTime != want.ClusterTime || got.Latency != want.Latency || got.Stages != want.Stages {
			t.Fatalf("workers=%d: accounting diverged: cluster %v/%v latency %v/%v stages %d/%d",
				workers, got.ClusterTime, want.ClusterTime, got.Latency, want.Latency, got.Stages, want.Stages)
		}
		if got.Chunks != 7 { // ceil(100/16)
			t.Fatalf("chunks = %d, want 7", got.Chunks)
		}
		if len(got.Swaps) != 0 || got.SwapErrors != 0 {
			t.Fatalf("unexpected swaps %v or errors %d", got.Swaps, got.SwapErrors)
		}
	}
}

// cheaperFilter passes exactly the same rows as thresholdFilter but charges
// less — an outcome-equivalent swap target, like a reordered PP expression.
type cheaperFilter struct{ thresholdFilter }

func (f cheaperFilter) Name() string { return "thresh'" }

// A swap after chunk 0 must keep rows byte-identical while lowering total
// virtual cost, and the swap must be recorded with its boundary.
func TestRunAdaptiveSwapMidRun(t *testing.T) {
	plan := adaptivePlan(100, 1)
	want, err := Run(plan, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		swapped := false
		got, err := RunAdaptive(plan, Config{Workers: workers}, AdaptiveConfig{
			ChunkRows: 20,
			Decide: func(cs ChunkStats) (BlobFilter, error) {
				if swapped {
					return nil, nil
				}
				swapped = true
				return cheaperFilter{thresholdFilter{col: "x", t: 9, cost: 0.25}}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if renderRows(got.Rows) != renderRows(want.Rows) {
			t.Fatalf("workers=%d: swap changed results", workers)
		}
		if len(got.Swaps) != 1 {
			t.Fatalf("swaps = %v, want one", got.Swaps)
		}
		sw := got.Swaps[0]
		if sw.Chunk != 1 || sw.OpIndex != 1 || sw.Old != "PP[thresh]" || sw.New != "PP[thresh']" {
			t.Fatalf("swap record wrong: %+v", sw)
		}
		// Chunk 0 (20 rows) at cost 1, chunks 1-4 (80 rows) at cost 0.25.
		wantPP := 20*1.0 + 80*0.25
		if got := got.PerOp[1].Cost; got != wantPP {
			t.Fatalf("PP cost across swap = %v, want %v", got, wantPP)
		}
		if got.ClusterTime >= want.ClusterTime {
			t.Fatalf("swap to cheaper filter did not lower cost: %v vs %v", got.ClusterTime, want.ClusterTime)
		}
		// The swapped position's PerOp row carries the final name and the
		// full cardinality of both plans.
		if got.PerOp[1].Name != "PP[thresh']" || got.PerOp[1].RowsIn != 100 {
			t.Fatalf("swapped PerOp row wrong: %+v", got.PerOp[1])
		}
	}
}

// A failing decider degrades gracefully: the run completes on the current
// plan with identical results, and the failures are counted.
func TestRunAdaptiveDeciderErrorContinues(t *testing.T) {
	plan := adaptivePlan(60, 1)
	want, err := Run(plan, Config{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunAdaptive(plan, Config{}, AdaptiveConfig{
		ChunkRows: 20,
		Decide: func(ChunkStats) (BlobFilter, error) {
			return nil, errors.New("replan exploded")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if renderRows(got.Rows) != renderRows(want.Rows) {
		t.Fatal("decider errors changed results")
	}
	if got.ClusterTime != want.ClusterTime {
		t.Fatalf("decider errors changed accounting: %v vs %v", got.ClusterTime, want.ClusterTime)
	}
	// Consulted after every chunk but the last: 3 chunks → 2 errors.
	if got.SwapErrors != 2 || len(got.Swaps) != 0 {
		t.Fatalf("swap errors = %d swaps = %v, want 2 and none", got.SwapErrors, got.Swaps)
	}
}

// Plans with no PP filter in the prefix have nothing to adapt and take the
// plain Run path.
func TestRunAdaptiveNoFilterFallsBack(t *testing.T) {
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(40)},
		&Process{P: fakeUDF{name: "U", cost: 1, col: "x"}},
	}}
	res, err := RunAdaptive(plan, Config{}, AdaptiveConfig{
		ChunkRows: 10,
		Decide: func(ChunkStats) (BlobFilter, error) {
			t.Fatal("decider consulted with no swappable operator")
			return nil, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Chunks != 0 || len(res.Rows) != 40 {
		t.Fatalf("fallback run wrong: chunks=%d rows=%d", res.Chunks, len(res.Rows))
	}
}

// An operator failure inside a chunk surfaces like Run's: an OpError naming
// the operator, with the work so far charged.
func TestRunAdaptiveOpErrorPropagates(t *testing.T) {
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(40)},
		&PPFilter{F: thresholdFilter{col: "x", t: -1, cost: 1}},
		&Process{P: fakeUDF{name: "U", cost: 1, col: "missing"}},
	}}
	_, err := RunAdaptive(plan, Config{}, AdaptiveConfig{
		ChunkRows: 10,
		Decide:    func(ChunkStats) (BlobFilter, error) { return nil, nil },
	})
	var oe *OpError
	if !errors.As(err, &oe) || oe.Op != "U" {
		t.Fatalf("err = %v, want OpError on U", err)
	}
}

// EXPLAIN ANALYZE must surface hot-swapped operators instead of silently
// attributing all rows to the final plan.
func TestAnalyzeAnnotatesHotSwap(t *testing.T) {
	plan := adaptivePlan(100, 1)
	swapped := false
	res, err := RunAdaptive(plan, Config{}, AdaptiveConfig{
		ChunkRows: 25,
		Decide: func(cs ChunkStats) (BlobFilter, error) {
			if swapped {
				return nil, nil
			}
			swapped = true
			return cheaperFilter{thresholdFilter{col: "x", t: 9, cost: 0.25}}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := res.Analyze(AnalyzeOptions{})
	for _, want := range []string{
		"chunks=4", "swaps=1",
		"HOT-SWAP @chunk 1/4: PP[thresh] -> PP[thresh']",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("analyze output missing %q:\n%s", want, out)
		}
	}
	// Plain runs stay unannotated.
	plain, err := Run(plan, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if o := plain.Analyze(AnalyzeOptions{}); strings.Contains(o, "chunks=") || strings.Contains(o, "HOT-SWAP") {
		t.Fatalf("plain run analyze carries adaptive annotations:\n%s", o)
	}
}
