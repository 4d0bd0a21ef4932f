package obs

import (
	"testing"
	"time"

	"probpred/internal/engine"
)

// TestEmitRunLaysOperatorsEndToEnd: the spans derived from a run's ledger
// join the caller's trace under its span, and the operator spans, which
// the ledger gives durations but no start times, are laid end to end from
// the run's start in plan order. A run with no Result and a nil tracer emit
// nothing.
func TestEmitRunLaysOperatorsEndToEnd(t *testing.T) {
	res := &engine.Result{ClusterTime: 6, Stages: 1, PerOp: []engine.OpStats{
		{Name: "Scan", RowsOut: 4, Cost: 1, WallNS: 100},
		{Name: "U", RowsIn: 4, RowsOut: 4, Cost: 5, WallNS: 300},
	}}
	col := NewCollector()
	tr := New(col)
	ctx := TraceContext{TraceID: NewTraceID(), SpanID: 7}
	start := time.Now().Add(-time.Second)
	tr.EmitRun(ctx, start, res, nil)
	tr.EmitRun(ctx, start, nil, nil)
	(*Tracer)(nil).EmitRun(ctx, start, res, nil)
	spans := col.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want two operators and the run", len(spans))
	}
	run := spans[2]
	if run.Kind != KindRun || run.Parent != ctx.SpanID || run.Trace != ctx.TraceID || !run.Start.Equal(start) || run.WallNS < int64(time.Second) {
		t.Fatalf("run span %+v, want it under span %d of trace %s, from start", run, ctx.SpanID, ctx.TraceID)
	}
	at := start
	for i, sp := range spans[:2] {
		op := res.PerOp[i]
		if sp.Kind != KindOperator || sp.Parent != run.ID || sp.Trace != ctx.TraceID || sp.Name != op.Name ||
			!sp.Start.Equal(at) || sp.WallNS != op.WallNS || sp.CostVMS != op.Cost {
			t.Fatalf("operator span %d = %+v, want %+v from %v under the run", i, sp, op, at)
		}
		at = at.Add(time.Duration(op.WallNS))
	}
}
