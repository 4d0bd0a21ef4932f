package engine

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// EXPLAIN ANALYZE: the post-execution counterpart of Explain. Where Explain
// shows the plan the optimizer chose, Analyze shows how the execution matched
// the optimizer's expectations — per-operator estimated vs actual
// cardinalities, virtual cost, real wall time, PP pass rates, and a
// misestimation flag wherever the actuals fall outside tolerance. It renders
// from Result.PerOp alone (WallNS and friends are measured on every run), so
// no tracer or registry needs to be attached.

// AnalyzeOptions shapes EXPLAIN ANALYZE rendering.
type AnalyzeOptions struct {
	// EstimatedRows[i] is the planner's estimated output cardinality for
	// Result.PerOp[i]. Negative entries — and positions beyond the slice —
	// mean "no estimate": they render as "-" and are never flagged.
	EstimatedRows []float64
}

// misestimated reports whether act misses the estimate e by more than the
// tolerated relative cardinality error |act−e|/max(e,1) of 0.25, the rule
// that flags an operator MISESTIMATE.
func misestimated(act int, e float64) bool {
	return math.Abs(float64(act)-e)/math.Max(e, 1) > 0.25
}

// Analyze renders the EXPLAIN ANALYZE tree for an executed plan.
func (r *Result) Analyze(opts AnalyzeOptions) string {
	est := func(i int) float64 {
		if i < len(opts.EstimatedRows) {
			return opts.EstimatedRows[i]
		}
		return -1
	}
	var b strings.Builder
	var opWall int64
	for _, op := range r.PerOp {
		opWall += op.WallNS
	}
	fmt.Fprintf(&b, "EXPLAIN ANALYZE  cluster=%.0f vms  latency=%.0f vms  stages=%d  wall=%s",
		r.ClusterTime, r.Latency, r.Stages, fmtWall(opWall))
	b.WriteString("\n")
	stage := 1
	fmt.Fprintf(&b, "stage %d:\n", stage)
	for i, op := range r.PerOp {
		if op.StageBoundary {
			stage++
			fmt.Fprintf(&b, "stage %d:\n", stage)
		}
		row := fmt.Sprintf("  -> %-36s est=%-8s act=%-8d cost=%-10.1f wall=%-9s",
			truncate(op.Name, 36), fmtEst(est(i)), op.RowsOut, op.Cost, fmtWall(op.WallNS))
		var notes []string
		if op.PPFilter && op.RowsIn > 0 {
			notes = append(notes, fmt.Sprintf("pass=%.1f%%", 100*float64(op.RowsOut)/float64(op.RowsIn)))
		}
		if op.Retries > 0 {
			notes = append(notes, fmt.Sprintf("retries=%d", op.Retries))
		}
		if op.Timeouts > 0 {
			notes = append(notes, fmt.Sprintf("timeouts=%d", op.Timeouts))
		}
		if e := est(i); e >= 0 && misestimated(op.RowsOut, e) {
			notes = append(notes, fmt.Sprintf("MISESTIMATE ×%.2f", misestimateFactor(float64(op.RowsOut), e)))
		}
		if len(notes) > 0 {
			row += " " + strings.Join(notes, " ")
		}
		b.WriteString(strings.TrimRight(row, " "))
		b.WriteString("\n")
	}
	return strings.TrimRight(b.String(), "\n")
}

// Misestimated returns the PerOp indices flagged by Analyze under the same
// tolerance rule — the machine-readable face of the MISESTIMATE marker.
func (r *Result) Misestimated(opts AnalyzeOptions) []int {
	var out []int
	for i := range r.PerOp {
		if i >= len(opts.EstimatedRows) {
			break
		}
		if e := opts.EstimatedRows[i]; e >= 0 && misestimated(r.PerOp[i].RowsOut, e) {
			out = append(out, i)
		}
	}
	return out
}

// misestimateFactor reports how far off the estimate was, as a ≥1 ratio in
// whichever direction the error runs (×2.00 means "off by 2× either way").
func misestimateFactor(actual, est float64) float64 {
	lo, hi := math.Min(actual, est), math.Max(actual, est)
	if lo <= 0 {
		return hi + 1 // degenerate: one side is zero; report magnitude+1
	}
	return hi / lo
}

func fmtEst(e float64) string {
	if e < 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", e)
}

// fmtWall renders nanoseconds compactly (µs under 1ms, ms under 1s).
func fmtWall(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.0fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", float64(d)/float64(time.Second))
	}
}
