package bench

import (
	"reflect"
	"testing"
)

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

	{exp: "adapt", metric: "outputs_identical", op: "==", bound: 1},
	{exp: "adapt", metric: "swaps", op: ">=", bound: 1},
	{exp: "adapt", metric: "cost_ratio", op: "<=", bound: 0.8},

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

// TestScenarioGates runs each gated scenario once at the configuration CI
// regenerates reports at (`ppbench -quick`, default seed) and checks every
// row against Report.Metrics.
func TestScenarioGates(t *testing.T) {
	reports := map[string]*Report{}
	for _, g := range scenarioGates {
		rep, ok := reports[g.exp]
		if !ok {
			var err error
			if rep, err = Run(g.exp, quick); err != nil {
				t.Fatalf("%s: %v", g.exp, err)
			}
			reports[g.exp] = rep
		}
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

// TestReportsDeterministicPerSeed: a report is a pure function of the seed —
// no map-order rendering, no wall-clock columns. (serve's cached hit/miss
// split depends on session interleaving and obs prints latencies, so they
// are not in the list.)
func TestReportsDeterministicPerSeed(t *testing.T) {
	for _, id := range []string{"ablation-model", "adapt", "stream"} {
		a, err := Run(id, quick)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		b, err := Run(id, quick)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !reflect.DeepEqual(a.Lines, b.Lines) {
			t.Errorf("%s: two runs at seed %d differ:\n%s\n%s", id, quick.Seed, a, b)
		}
	}
}
