package engine

import (
	"errors"
	"testing"

	"probpred/internal/blob"
	"probpred/internal/obs"
	"probpred/internal/query"
)

// failTailBlobs returns n blobs whose LAST one has no truth map, making
// fakeUDF fail on it, so a failed run attempts every row once.
func failTailBlobs(n int) []blob.Blob {
	blobs := makeBlobs(n)
	blobs[n-1] = blob.Blob{ID: n - 1}
	return blobs
}

// spanTree indexes one traced run's spans by kind.
type spanTree struct {
	run *obs.Span
	ops map[int64]obs.Span
}

func collectSpans(t *testing.T, col *obs.Collector) spanTree {
	t.Helper()
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

// TestRunEmitsSpans: a traced run emits one root span and one span per
// operator parented under it, with virtual costs that reconcile exactly.
func TestRunEmitsSpans(t *testing.T) {
	// "plain" names the case as before the adaptive run mode was deleted.
	t.Run("plain", func(t *testing.T) {
		col := obs.NewCollector()
		plan := Plan{Ops: []Operator{
			&Scan{Blobs: makeBlobs(100)},
			&PPFilter{F: thresholdFilter{col: "x", t: 49, cost: 1}},
			&Process{P: fakeUDF{name: "U", cost: 7, col: "x"}},
			&Select{Pred: query.MustParse("x>60")},
		}}
		res, err := Run(plan, Config{Obs: obs.New(col)})
		if err != nil {
			t.Fatal(err)
		}
		tree := collectSpans(t, col)
		if tree.run.CostVMS != res.ClusterTime {
			t.Fatalf("run span cost %v, ClusterTime %v", tree.run.CostVMS, res.ClusterTime)
		}
		if len(tree.ops) != len(plan.Ops) {
			t.Fatalf("operator spans = %d, want %d", len(tree.ops), len(plan.Ops))
		}
		if opTotal := checkSpanTree(t, tree); opTotal != res.ClusterTime {
			t.Fatalf("operator span costs sum to %v, ClusterTime %v", opTotal, res.ClusterTime)
		}
	})
}

// TestFailedRunSpansCarryCost: when a run fails, the Result is nil — the
// emitted spans are how the charged cost is observed. The failing Process
// is charged every row it attempted, the failing one included, the run span
// carries the scan's and the Process's charge, and only the failing
// operator is marked.
func TestFailedRunSpansCarryCost(t *testing.T) {
	// "plain" names the case as before the adaptive run mode was deleted.
	t.Run("plain", func(t *testing.T) {
		const n, cost = 40, 7.0
		col := obs.NewCollector()
		plan := Plan{Ops: []Operator{
			&Scan{Blobs: failTailBlobs(n)},
			&PPFilter{F: thresholdFilter{col: "x", t: -1, cost: 0}},
			&Process{P: fakeUDF{name: "U", cost: cost, col: "x"}},
		}}
		_, err := Run(plan, Config{Obs: obs.New(col)})
		var opErr *OpError
		if !errors.As(err, &opErr) || opErr.Op != "U" {
			t.Fatalf("run error = %v, want an OpError naming U", err)
		}
		tree := collectSpans(t, col)
		if want := n*scanCost + n*cost; tree.run.CostVMS != want {
			t.Fatalf("failed run charged %v, want %v (scan + all attempts)", tree.run.CostVMS, want)
		}
		if !hasAttr(*tree.run, "error") {
			t.Fatal("run span does not carry the error attribute")
		}
		if opTotal := checkSpanTree(t, tree); opTotal != tree.run.CostVMS {
			t.Fatalf("operator span costs sum to %v, run charged %v", opTotal, tree.run.CostVMS)
		}
		marked := 0
		for _, sp := range tree.ops {
			if hasAttr(sp, "error") {
				if sp.Name != "U" {
					t.Fatalf("operator %q carries an error, want only U", sp.Name)
				}
				if sp.CostVMS != n*cost {
					t.Fatalf("failed U charged %v, want %v (every row attempted once)", sp.CostVMS, n*cost)
				}
				marked++
			}
		}
		if marked != 1 {
			t.Fatalf("%d operator spans carry the error attribute, want 1", marked)
		}
	})
}

// namesCounted is an operator that counts the calls to its Name.
type namesCounted struct {
	Operator
	calls *int
}

func (n namesCounted) Name() string {
	*n.calls++
	return n.Operator.Name()
}

// TestUntracedRunSkipsSpanWork: without a tracer a run builds no operator
// span, so an operator's Name is read once, for its PerOp entry, and twice
// on a traced run.
func TestUntracedRunSkipsSpanWork(t *testing.T) {
	for _, c := range []struct {
		name string
		obs  *obs.Tracer
		want int
	}{{"untraced", nil, 1}, {"traced", obs.New(obs.NopSink{}), 2}} {
		calls := 0
		plan := Plan{Ops: []Operator{
			&Scan{Blobs: makeBlobs(50)},
			&Process{P: fakeUDF{name: "U", cost: 3, col: "x"}},
			namesCounted{Operator: &Select{Pred: query.MustParse("x>10")}, calls: &calls},
		}}
		res, err := Run(plan, Config{Obs: c.obs})
		if err != nil {
			t.Fatal(err)
		}
		if calls != c.want || res.PerOp[2].Name != "σ[x>10]" {
			t.Fatalf("%s run: Name called %d times (PerOp name %q), want %d", c.name, calls, res.PerOp[2].Name, c.want)
		}
	}
}

// TestRunNilTracerUnchanged: tracing disabled (the default) must not change
// results or costs.
func TestRunNilTracerUnchanged(t *testing.T) {
	plan := func() Plan {
		return Plan{Ops: []Operator{
			&Scan{Blobs: makeBlobs(50)},
			&Process{P: fakeUDF{name: "U", cost: 3, col: "x"}},
			&Select{Pred: query.MustParse("x>10")},
		}}
	}
	plain, err := Run(plan(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Run(plan(), Config{Obs: obs.New(obs.NopSink{})})
	if err != nil {
		t.Fatal(err)
	}
	if plain.ClusterTime != traced.ClusterTime || len(plain.Rows) != len(traced.Rows) {
		t.Fatalf("tracing changed execution: %v/%d vs %v/%d",
			plain.ClusterTime, len(plain.Rows), traced.ClusterTime, len(traced.Rows))
	}
}
