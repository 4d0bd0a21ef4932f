package engine

import (
	"errors"
	"strings"
	"testing"

	"probpred/internal/blob"
	"probpred/internal/obs"
	"probpred/internal/query"
)

// failTailBlobs returns n blobs whose LAST one has no truth map, making
// fakeUDF fail on it. Placing the failure last makes the sequential and
// parallel paths perform — and therefore charge — exactly the same work.
func failTailBlobs(n int) []blob.Blob {
	blobs := makeBlobs(n)
	blobs[n-1] = blob.Blob{ID: n - 1}
	return blobs
}

// TestParallelErrorChargesPartialWork: a worker range's error must not
// discard the virtual cost the workers accumulated. Both paths attempt every
// row once (failure last), so the failing operator's charge must match
// exactly.
func TestParallelErrorChargesPartialWork(t *testing.T) {
	const n, cost = 40, 7.0
	charged := func(workers int) float64 {
		col := obs.NewCollector()
		plan := Plan{Ops: []Operator{&Scan{Blobs: failTailBlobs(n)}, &Process{P: fakeUDF{name: "U", cost: cost, col: "x"}}}}
		if _, err := Run(plan, Config{Workers: workers, Obs: obs.New(col)}); err == nil {
			t.Fatalf("workers=%d: expected failure", workers)
		}
		for _, sp := range col.Spans() {
			if sp.Kind == obs.KindOperator && sp.Name == "U" {
				return sp.CostVMS
			}
		}
		t.Fatalf("workers=%d: no span for U", workers)
		return 0
	}
	seq, par := charged(1), charged(4)

	want := float64(n) * cost // every row attempted once, failing one included
	if seq != want {
		t.Fatalf("sequential charged %v, want %v", seq, want)
	}
	if par != seq {
		t.Fatalf("parallel charged %v, sequential %v — accounting diverged", par, seq)
	}
}

// TestPPFilterParallelChargesAllChunks: the source stage's filter, split
// across workers, must charge and pass what the filter's own TestBatch does
// over the scanned blobs in one call.
func TestPPFilterParallelChargesAllChunks(t *testing.T) {
	blobs := makeBlobs(100)
	f := &PPFilter{F: thresholdFilter{col: "x", t: 49, cost: 1}}
	pass, cost := make([]bool, len(blobs)), make([]float64, len(blobs))
	f.F.TestBatch(blobs, pass, cost, nil)
	want, seq := 0, 0.0
	for i, ok := range pass {
		seq += cost[i]
		if ok {
			want++
		}
	}
	res, err := Run(Plan{Ops: []Operator{&Scan{Blobs: blobs}, f}}, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par := res.PerOp[1].Cost; seq != par || seq != 100 {
		t.Fatalf("filter costs diverged: seq=%v par=%v want 100", seq, par)
	}
	if len(res.Rows) != want || res.PerOp[1].RowsOut != want {
		t.Fatalf("source stage passed %d rows, TestBatch %d", len(res.Rows), want)
	}
}

// spanTree indexes one traced run's spans by kind. The span tests size their
// inputs so that, at Workers 4, every execution that charges cost has at
// least 2×workers rows: an execution with fewer runs inline without a chunk
// span, and chunk costs would then sum to less than the operator's.
type spanTree struct {
	run    *obs.Span
	ops    map[int64]obs.Span
	chunks []obs.Span
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
		case obs.KindChunk:
			tree.chunks = append(tree.chunks, spans[i])
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

// checkSpanTree asserts chunk → operator → run parentage and that chunk
// costs sum to their operator's, returning the operators' total cost.
func checkSpanTree(t *testing.T, tree spanTree) float64 {
	t.Helper()
	opTotal := 0.0
	for _, sp := range tree.ops {
		if sp.Parent != tree.run.ID {
			t.Fatalf("operator span %q parented under %d, want run %d", sp.Name, sp.Parent, tree.run.ID)
		}
		opTotal += sp.CostVMS
	}
	chunkTotal := map[int64]float64{}
	for _, c := range tree.chunks {
		parent, ok := tree.ops[c.Parent]
		if !ok {
			t.Fatalf("chunk %q parented under unknown span %d", c.Name, c.Parent)
		}
		if !strings.HasPrefix(c.Name, parent.Name+"[") {
			t.Fatalf("chunk name %q does not extend operator %q", c.Name, parent.Name)
		}
		chunkTotal[c.Parent] += c.CostVMS
	}
	for id, total := range chunkTotal {
		if total != tree.ops[id].CostVMS {
			t.Fatalf("chunks of %q sum to %v, operator charged %v", tree.ops[id].Name, total, tree.ops[id].CostVMS)
		}
	}
	return opTotal
}

// TestRunEmitsSpans: a traced run emits one root span, one span per
// operator parented under it, and per-chunk child spans on the parallel
// path — with virtual costs that reconcile exactly at every level.
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
		res, err := Run(plan, Config{Workers: 4, Obs: obs.New(col)})
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
		// Both row-parallel operators (4 workers; 100 and 50 input rows) must
		// have emitted chunk spans whose costs reconcile with their operator.
		if len(tree.chunks) == 0 {
			t.Fatal("no chunk spans from the parallel path")
		}
		if opTotal := checkSpanTree(t, tree); opTotal != res.ClusterTime {
			t.Fatalf("operator span costs sum to %v, ClusterTime %v", opTotal, res.ClusterTime)
		}
	})
}

// TestFailedRunSpansCarryCost: when a run fails, the Result is nil — the
// emitted spans are how the charged cost is observed. Parallel and
// sequential failures must report identical virtual cost on the run span,
// and the failing operator and chunk must be marked.
func TestFailedRunSpansCarryCost(t *testing.T) {
	// "plain" names the case as before the adaptive run mode was deleted.
	t.Run("plain", func(t *testing.T) {
		const n = 40
		failedRun := func(workers int) spanTree {
			col := obs.NewCollector()
			plan := Plan{Ops: []Operator{
				&Scan{Blobs: failTailBlobs(n)},
				&PPFilter{F: thresholdFilter{col: "x", t: -1, cost: 0}},
				&Process{P: fakeUDF{name: "U", cost: 7, col: "x"}},
			}}
			_, err := Run(plan, Config{Workers: workers, Obs: obs.New(col)})
			var opErr *OpError
			if !errors.As(err, &opErr) || opErr.Op != "U" {
				t.Fatalf("run error = %v, want an OpError naming U", err)
			}
			return collectSpans(t, col)
		}
		seq, par := failedRun(1), failedRun(4)
		if seq.run.CostVMS != par.run.CostVMS {
			t.Fatalf("failed-run costs diverged: sequential %v, parallel %v", seq.run.CostVMS, par.run.CostVMS)
		}
		if want := n*scanCost + n*7; seq.run.CostVMS != want {
			t.Fatalf("failed run charged %v, want %v (scan + all attempts)", seq.run.CostVMS, want)
		}
		if !hasAttr(*par.run, "error") {
			t.Fatal("run span does not carry the error attribute")
		}
		if opTotal := checkSpanTree(t, par); opTotal != par.run.CostVMS {
			t.Fatalf("operator span costs sum to %v, run charged %v", opTotal, par.run.CostVMS)
		}
		for _, tree := range []spanTree{seq, par} {
			marked := 0
			for _, sp := range tree.ops {
				if hasAttr(sp, "error") {
					if sp.Name != "U" {
						t.Fatalf("operator %q carries an error, want only U", sp.Name)
					}
					marked++
				}
			}
			if marked != 1 {
				t.Fatalf("%d operator spans carry the error attribute, want 1", marked)
			}
		}
		marked := false
		for _, sp := range par.chunks {
			marked = marked || hasAttr(sp, "error")
		}
		if !marked {
			t.Fatal("no chunk span carries the error attribute")
		}
	})
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
