package engine

import (
	"strings"
	"testing"

	"probpred/internal/metrics"
	"probpred/internal/query"
)

func TestRunEmitsMetrics(t *testing.T) {
	reg := metrics.New()
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(100)},
		&PPFilter{F: thresholdFilter{col: "x", t: 49, cost: 1}},
		&Process{P: fakeUDF{name: "XExtract", cost: 5, col: "x"}},
		&Select{Pred: query.MustParse("x>=60")},
	}}
	res, err := Run(plan, Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("engine_runs_total", "").Value(); got != 1 {
		t.Fatalf("engine_runs_total = %v, want 1", got)
	}
	if got := reg.Counter("engine_run_errors_total", "").Value(); got != 0 {
		t.Fatalf("engine_run_errors_total = %v, want 0", got)
	}
	// The PP filter tested the whole scan output and passed x>49: 50 rows.
	if got := reg.Counter("engine_ppfilter_tested_total", "").Value(); got != 100 {
		t.Fatalf("tested = %v, want 100", got)
	}
	if got := reg.Counter("engine_ppfilter_passed_total", "").Value(); got != 50 {
		t.Fatalf("passed = %v, want 50", got)
	}
	op := metrics.L("op", "XExtract")
	if got := reg.Counter("engine_op_rows_in_total", "", op).Value(); got != 50 {
		t.Fatalf("udf rows in = %v, want 50", got)
	}
	// The filter and the selection are labeled by kind, not by their text.
	if got := reg.Counter("engine_op_rows_in_total", "", metrics.L("op", "PP")).Value(); got != 100 {
		t.Fatalf("PP rows in = %v, want 100", got)
	}
	if got := reg.Counter("engine_op_rows_in_total", "", metrics.L("op", "σ")).Value(); got != 50 {
		t.Fatalf("σ rows in = %v, want 50", got)
	}
	if got := reg.Histogram("engine_op_cost_vms", "", op).Count(); got != 1 {
		t.Fatalf("udf cost observations = %v, want 1", got)
	}
	if got := reg.Histogram("engine_run_cluster_vms", "").Count(); got != 1 {
		t.Fatalf("run cluster observations = %v, want 1", got)
	}
	// PerOp must mirror what the metrics saw.
	if len(res.PerOp) != 4 {
		t.Fatalf("PerOp = %d entries", len(res.PerOp))
	}
	if !res.PerOp[1].PPFilter || res.PerOp[1].RowsOut != 50 {
		t.Fatalf("PerOp[1] = %+v", res.PerOp[1])
	}
	for i, op := range res.PerOp {
		if op.WallNS < 0 {
			t.Fatalf("PerOp[%d].WallNS negative", i)
		}
	}
}

func TestRunErrorEmitsErrorMetrics(t *testing.T) {
	reg := metrics.New()
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: failTailBlobs(10)},
		&Process{P: fakeUDF{name: "U", cost: 2, col: "x"}},
	}}
	if _, err := Run(plan, Config{Metrics: reg}); err == nil {
		t.Fatal("run should fail")
	}
	if got := reg.Counter("engine_runs_total", "").Value(); got != 1 {
		t.Fatalf("engine_runs_total = %v", got)
	}
	if got := reg.Counter("engine_run_errors_total", "").Value(); got != 1 {
		t.Fatalf("engine_run_errors_total = %v", got)
	}
	// Successful-run histograms must not record the failed run.
	if got := reg.Histogram("engine_run_cluster_vms", "").Count(); got != 0 {
		t.Fatalf("cluster histogram recorded a failed run: %d", got)
	}
}

func TestRetryMetricsCounted(t *testing.T) {
	reg := metrics.New()
	blobs := makeBlobs(40)
	udf := &flakyUDF{fakeUDF: fakeUDF{name: "F", cost: 1, col: "x"}, fails: map[int]int{3: 1, 17: 1}}
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: blobs},
		&Process{P: udf},
	}}
	res, err := Run(plan, Config{Metrics: reg, Retry: RetryPolicy{MaxAttempts: 3}})
	if err != nil {
		t.Fatalf("%v", err)
	}
	op := metrics.L("op", "F")
	if got := reg.Counter("engine_retries_total", "", op).Value(); got != 2 {
		t.Fatalf("retries = %v, want 2", got)
	}
	if res.PerOp[1].Retries != 2 {
		t.Fatalf("PerOp retries = %d, want 2", res.PerOp[1].Retries)
	}
}

func TestAnalyzeFlagsMisestimates(t *testing.T) {
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(100)},
		&PPFilter{F: thresholdFilter{col: "x", t: 49, cost: 1}},
		&Process{P: fakeUDF{name: "XExtract", cost: 5, col: "x"}},
		&Select{Pred: query.MustParse("x>=60")},
	}}
	res, err := Run(plan, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Actual filter output is 50; estimate 20 is off by 2.5x and must flag.
	// The σ actually emits 40; estimate 38 is within the default tolerance.
	out := res.Analyze(AnalyzeOptions{EstimatedRows: []float64{100, 20, 50, 38}})
	if !strings.Contains(out, "MISESTIMATE") {
		t.Fatalf("expected a MISESTIMATE flag:\n%s", out)
	}
	if !strings.Contains(out, "pass=50.0%") {
		t.Fatalf("expected the PP pass rate:\n%s", out)
	}
	if strings.Count(out, "MISESTIMATE") != 1 {
		t.Fatalf("exactly one flag expected:\n%s", out)
	}
	flagged := res.Misestimated(AnalyzeOptions{EstimatedRows: []float64{100, 20, 50, 38}})
	if len(flagged) != 1 || flagged[0] != 1 {
		t.Fatalf("Misestimated = %v, want [1]", flagged)
	}
	// No estimates at all: render with "-" and no flags.
	out = res.Analyze(AnalyzeOptions{})
	if strings.Contains(out, "MISESTIMATE") {
		t.Fatalf("flag without estimates:\n%s", out)
	}
	if !strings.Contains(out, "est=-") {
		t.Fatalf("missing '-' placeholder:\n%s", out)
	}
}

func TestMetricsDisabledIsNoop(t *testing.T) {
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(10)},
		&Process{P: fakeUDF{name: "X", cost: 1, col: "x"}},
		&Select{Pred: query.MustParse("x>=5")},
	}}
	// A nil registry must not panic anywhere in the metrics path.
	if _, err := Run(plan, Config{}); err != nil {
		t.Fatal(err)
	}
}
