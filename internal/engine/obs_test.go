package engine_test

import (
	"errors"
	"testing"
	"time"

	"probpred/internal/blob"
	"probpred/internal/engine"
	"probpred/internal/obs"
	"probpred/internal/query"
)

// The engine takes no tracer: these tests hold the spans internal/obs
// derives from a run's ledger, which is why they live outside the package.

// failTailBlobs returns n blobs whose LAST one has no truth map, making
// FakeUDF fail on it, so a failed run attempts every row once.
func failTailBlobs(n int) []blob.Blob {
	blobs := engine.MakeBlobs(n)
	blobs[n-1] = blob.Blob{ID: n - 1}
	return blobs
}

// spanTree indexes one traced run's spans by kind.
type spanTree struct {
	run *obs.Span
	ops map[int64]obs.Span
}

// traceRun derives the spans of one run and indexes them.
func traceRun(t *testing.T, start time.Time, res *engine.Result, err error) spanTree {
	t.Helper()
	col := obs.NewCollector()
	obs.New(col).EmitRun(obs.TraceContext{}, start, res, err)
	tree := spanTree{ops: map[int64]obs.Span{}}
	spans := col.Spans()
	for i := range spans {
		switch spans[i].Kind {
		case obs.KindRun:
			tree.run = &spans[i]
		case obs.KindOperator:
			tree.ops[spans[i].ID] = spans[i]
		}
	}
	if tree.run == nil {
		t.Fatal("no run span")
	}
	return tree
}

func hasAttr(sp obs.Span, key string) bool {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return true
		}
	}
	return false
}

// checkSpanTree asserts operator → run parentage, returning the operators'
// total cost.
func checkSpanTree(t *testing.T, tree spanTree) float64 {
	t.Helper()
	opTotal := 0.0
	for _, sp := range tree.ops {
		if sp.Parent != tree.run.ID {
			t.Fatalf("operator span %q parented under %d, want run %d", sp.Name, sp.Parent, tree.run.ID)
		}
		opTotal += sp.CostVMS
	}
	return opTotal
}

// TestRunEmitsSpans: a run's ledger derives one root span and one span per
// operator parented under it, with virtual costs that reconcile exactly.
func TestRunEmitsSpans(t *testing.T) {
	// "plain" names the case as before the adaptive run mode was deleted.
	t.Run("plain", func(t *testing.T) {
		plan := engine.Plan{Ops: []engine.Operator{
			&engine.Scan{Blobs: engine.MakeBlobs(100)},
			&engine.PPFilter{F: engine.ThresholdFilter("x", 49, 1)},
			&engine.Process{P: engine.FakeUDF("U", 7, "x")},
			&engine.Select{Pred: query.MustParse("x>60")},
		}}
		start := time.Now()
		res, err := engine.Run(plan, engine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		tree := traceRun(t, start, res, err)
		if tree.run.CostVMS != res.ClusterTime || tree.run.RowsOut != len(res.Rows) {
			t.Fatalf("run span cost %v rows %d, ClusterTime %v rows %d", tree.run.CostVMS, tree.run.RowsOut, res.ClusterTime, len(res.Rows))
		}
		if len(tree.ops) != len(plan.Ops) {
			t.Fatalf("operator spans = %d, want %d", len(tree.ops), len(plan.Ops))
		}
		if opTotal := checkSpanTree(t, tree); opTotal != res.ClusterTime {
			t.Fatalf("operator span costs sum to %v, ClusterTime %v", opTotal, res.ClusterTime)
		}
	})
}

// TestFailedRunSpansCarryCost: a failed run returns its partial ledger
// beside the *OpError, and the spans derived from it carry the charge. The
// ledger holds the positions that ran — the Select after the failing
// Process never did — the failing Process is charged every row it
// attempted, the failing one included, and ClusterTime is the scan's and
// the Process's charge. The OpError's Pos picks the failing operator, the
// only operator span marked.
func TestFailedRunSpansCarryCost(t *testing.T) {
	// "plain" names the case as before the adaptive run mode was deleted.
	t.Run("plain", func(t *testing.T) {
		const n, cost = 40, 7.0
		plan := engine.Plan{Ops: []engine.Operator{
			&engine.Scan{Blobs: failTailBlobs(n)},
			&engine.PPFilter{F: engine.ThresholdFilter("x", -1, 0)},
			&engine.Process{P: engine.FakeUDF("U", cost, "x")},
			&engine.Select{Pred: query.MustParse("x>10")},
		}}
		start := time.Now()
		res, err := engine.Run(plan, engine.Config{})
		var opErr *engine.OpError
		if !errors.As(err, &opErr) || opErr.Op != "U" || opErr.Pos != 2 {
			t.Fatalf("run error = %v, want an OpError naming U at position 2", err)
		}
		if res == nil || len(res.PerOp) != 3 || res.Rows != nil {
			t.Fatalf("partial Result %+v, want the three positions that ran and no rows", res)
		}
		want := n*engine.ScanCost + n*cost
		sum := 0.0
		for _, op := range res.PerOp {
			sum += op.Cost
		}
		if res.ClusterTime != want || sum != want {
			t.Fatalf("failed run charged %v (PerOp sum %v), want %v (scan + all attempts)", res.ClusterTime, sum, want)
		}
		if u := res.PerOp[2]; u.Name != "U" || u.RowsIn != n || u.Cost != n*cost {
			t.Fatalf("failed U's ledger row %+v, want %d rows in at %v", u, n, n*cost)
		}

		tree := traceRun(t, start, res, err)
		if tree.run.CostVMS != want {
			t.Fatalf("failed run span charged %v, want %v", tree.run.CostVMS, want)
		}
		if !hasAttr(*tree.run, "error") {
			t.Fatal("run span does not carry the error attribute")
		}
		if opTotal := checkSpanTree(t, tree); opTotal != tree.run.CostVMS || len(tree.ops) != len(res.PerOp) {
			t.Fatalf("%d operator spans costing %v, run charged %v over %d positions", len(tree.ops), opTotal, tree.run.CostVMS, len(res.PerOp))
		}
		marked := 0
		for _, sp := range tree.ops {
			if hasAttr(sp, "error") {
				if sp.Name != "U" || sp.CostVMS != n*cost {
					t.Fatalf("operator %q charged %v carries the error, want only U at %v", sp.Name, sp.CostVMS, n*cost)
				}
				marked++
			}
		}
		if marked != 1 {
			t.Fatalf("%d operator spans carry the error attribute, want 1", marked)
		}
	})
}
