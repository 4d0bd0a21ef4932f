package engine

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Explain renders a plan as an indented operator listing with stage
// boundaries marked — the EXPLAIN of this mini-engine.
func Explain(p Plan) string {
	var b strings.Builder
	stage := 1
	fmt.Fprintf(&b, "stage %d:\n", stage)
	for _, op := range p.Ops {
		if op.StageBoundary() {
			stage++
			fmt.Fprintf(&b, "stage %d:\n", stage)
		}
		fmt.Fprintf(&b, "  %s\n", op.Name())
	}
	return strings.TrimRight(b.String(), "\n")
}

// Summary renders a result's per-operator cardinalities and virtual costs
// in plan order — what an operator-level profiler would show. Accounting is
// keyed by plan position (Result.PerOp), so two operators sharing a Name()
// each show their own rows and cost rather than the combined totals.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-40s %10s %10s %14s\n", "operator", "rows in", "rows out", "cost (vms)")
	for _, op := range r.PerOp {
		fmt.Fprintf(&b, "%-40s %10d %10d %14.1f\n",
			truncate(op.Name, 40), op.RowsIn, op.RowsOut, op.Cost)
	}
	fmt.Fprintf(&b, "total: cluster %.0f vms, latency %.0f vms, %d stages",
		r.ClusterTime, r.Latency, r.Stages)
	return b.String()
}

// truncate limits s to n runes, marking the cut with an ellipsis. Cutting by
// runes (not bytes) keeps multi-byte operator names — σ, π, ⋈ and quoted
// values in any script — valid UTF-8.
func truncate(s string, n int) string {
	if utf8.RuneCountInString(s) <= n {
		return s
	}
	runes := []rune(s)
	return string(runes[:n-1]) + "…"
}
