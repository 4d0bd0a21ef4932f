package obs

import (
	"errors"
	"strconv"
	"time"

	"probpred/internal/engine"
	"probpred/internal/optimizer"
	"probpred/internal/query"
)

// The engine and the optimizer keep one ledger each and take no tracer:
// engine.Result.PerOp is a run's, optimizer.Decision.Search a plan search's.
// The spans and events below are derived from those ledgers by the caller
// that holds the session's trace context.

// EmitRun derives one engine run's spans from its ledger: a KindRun span
// named "plan", started at start and parented under ctx, and under it one
// KindOperator span per PerOp row, in plan order, each laid end to end from
// start with the row's wall time, virtual cost and cardinalities. err is
// what engine.Run returned beside res: on a failed run the run span and the
// failing operator's span (the *engine.OpError's Pos) carry the error, and
// the spans carry the partial charge. A plan refused before any work leaves
// no Result and has no spans.
func (t *Tracer) EmitRun(ctx TraceContext, start time.Time, res *engine.Result, err error) {
	if !t.Enabled() || res == nil {
		return
	}
	run := t.BeginCtx(ctx, KindRun, "plan")
	run.Start = start
	failedAt := -1
	if err != nil {
		var opErr *engine.OpError
		if errors.As(err, &opErr) {
			failedAt, err = opErr.Pos, opErr.Err
		}
	}
	at := start
	for i, op := range res.PerOp {
		sp := Span{
			ID: t.ids.Add(1), Parent: run.ID, Trace: run.Trace, Kind: KindOperator, Name: op.Name,
			Start: at, WallNS: op.WallNS, CostVMS: op.Cost, RowsIn: op.RowsIn, RowsOut: op.RowsOut,
		}
		if i == failedAt {
			sp.SetAttr("error", err.Error())
		}
		t.sink.Span(sp)
		at = at.Add(time.Duration(op.WallNS))
	}
	run.CostVMS = res.ClusterTime
	if err != nil {
		run.SetAttr("error", err.Error())
	} else {
		run.RowsOut = len(res.Rows)
		run.SetAttr("stages", strconv.Itoa(res.Stages))
		run.SetAttr("latency_vms", strconv.FormatFloat(res.Latency, 'f', 1, 64))
	}
	t.End(&run)
}

// EmitSearch derives one plan search's KindOptimize span from its ledger,
// dec.Search, parented under ctx and named by pred as the caller spelled it.
// It ends when EmitSearch is called, so callers call it as Optimize returns.
// A decision no search produced (an unsatisfiable predicate, dec.Search
// zero) has no span.
func (t *Tracer) EmitSearch(ctx TraceContext, pred query.Pred, dec *optimizer.Decision) {
	if !t.Enabled() || dec.Search == (optimizer.SearchStats{}) {
		return
	}
	sp := t.BeginCtx(ctx, KindOptimize, pred.String())
	sp.Start = sp.Start.Add(-time.Duration(dec.Search.WallNS))
	sp.SetAttr("injected", strconv.FormatBool(dec.Inject))
	sp.SetAttr("candidates", strconv.Itoa(dec.Search.Costed))
	sp.SetAttr("memo_hits", strconv.Itoa(dec.Search.MemoHits))
	if dec.Inject {
		sp.SetAttr("expr", dec.Expr)
		sp.SetAttr("reduction", strconv.FormatFloat(dec.Reduction, 'f', 3, 64))
	}
	sp.SetAttr("candidates_generated", strconv.Itoa(dec.Search.Generated))
	sp.SetAttr("memo_entries", strconv.Itoa(dec.Search.MemoEntries))
	sp.CostVMS = dec.PlanCost
	sp.WallNS = dec.Search.WallNS
	t.EmitSpan(sp)
}

// EmitMisestimation records a misestimation optimizer.ObserveRuntime
// reported as an optimizer.misestimation event under the observing
// session's trace, so a drifted query is attributable from the event stream
// alone.
func (t *Tracer) EmitMisestimation(ctx TraceContext, dec *optimizer.Decision, observedReduction float64) {
	if !t.Enabled() {
		return
	}
	t.EventCtx(ctx, "optimizer.misestimation",
		Attr{Key: "expr", Value: dec.Expr},
		Attr{Key: "estimated", Value: strconv.FormatFloat(dec.Reduction, 'f', 3, 64)},
		Attr{Key: "observed", Value: strconv.FormatFloat(observedReduction, 'f', 3, 64)})
}
