package bench

import "testing"

// scenarioGates are the claims the scenario arcs must keep making. Each row
// compares one Report metric against a constant bound, or — when ref is set —
// against another metric of the same report.
var scenarioGates = []struct {
	exp, metric, op string
	bound           float64
	ref             string
}{
	{exp: "serve", metric: "outputs_identical", op: "==", bound: 1},
	{exp: "serve", metric: "eval_ratio", op: ">=", bound: 2},

	{exp: "obs", metric: "sessions", op: ">", bound: 0},
	{exp: "obs", metric: "all_have_trace", op: "==", bound: 1},
	{exp: "obs", metric: "querylog_drops", op: "==", bound: 0},
	{exp: "obs", metric: "errors", op: "==", bound: 0},
	{exp: "obs", metric: "p99_exemplar_resolves", op: "==", bound: 1},
	{exp: "obs", metric: "p99_exemplar_spans", op: ">", bound: 0},

	{exp: "stream", metric: "backfill_equal", op: "==", bound: 1},
	{exp: "stream", metric: "watchdog_tripped", op: "==", bound: 1},
	{exp: "stream", metric: "watchdog_recovered", op: "==", bound: 1},
	{exp: "stream", metric: "recovered_accuracy", op: ">=", ref: "recovered_accuracy_floor"},
	{exp: "stream", metric: "recovered_cost_ratio", op: ">", bound: 0},
	{exp: "stream", metric: "recovered_cost_ratio", op: "<=", bound: 0.8},
	{exp: "stream", metric: "pre_drift_cost_ratio", op: ">", bound: 0},
	{exp: "stream", metric: "pre_drift_cost_ratio", op: "<=", bound: 0.8},
}

func holds(v float64, op string, bound float64) bool {
	switch op {
	case "==":
		return v == bound
	case ">=":
		return v >= bound
	case "<=":
		return v <= bound
	case ">":
		return v > bound
	}
	panic("unknown gate op " + op)
}

// TestScenarioGates reads each gated scenario at the golden's configuration
// (`ppbench -quick`, default seed) and checks every row against
// Report.Metrics.
func TestScenarioGates(t *testing.T) {
	for _, g := range scenarioGates {
		rep := quickReport(t, g.exp)
		v, ok := rep.Metrics[g.metric]
		if !ok {
			t.Errorf("%s: report has no metric %q", g.exp, g.metric)
			continue
		}
		bound, against := g.bound, ""
		if g.ref != "" {
			if bound, ok = rep.Metrics[g.ref]; !ok {
				t.Errorf("%s: report has no metric %q", g.exp, g.ref)
				continue
			}
			against = " (" + g.ref + ")"
		}
		if !holds(v, g.op, bound) {
			t.Errorf("%s: %s = %v, want %s %v%s", g.exp, g.metric, v, g.op, bound, against)
		}
	}
}
