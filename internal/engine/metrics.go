package engine

import (
	"probpred/internal/metrics"
)

// Numeric telemetry for the execution engine (Config.Metrics). Instruments
// are resolved once per plan position per run — never inside row loops — so
// a live registry adds no per-row allocations to the batch hot path; a nil
// registry costs one pointer check per run (the same contract as the nil
// obs.Tracer).

// retryTally accumulates one operator execution's retry activity. It is
// plumbed through the per-row retry loop as plain ints (per-chunk on the
// parallel path, summed at the merge), so counting is free of atomics and
// allocations even under Workers > 1.
type retryTally struct {
	// retries is how many failed attempts were retried.
	retries int
	// timeouts is how many attempts were killed at the row-timeout deadline.
	timeouts int
}

func (t *retryTally) add(o retryTally) {
	t.retries += o.retries
	t.timeouts += o.timeouts
}

// emitRunMetrics records one completed Run, or a failed one when res is nil.
// traceID, when non-empty, becomes the exemplar on the run histograms'
// buckets so a tail bucket resolves back to its session.
func emitRunMetrics(reg *metrics.Registry, res *Result, wallNS int64, traceID string) {
	if reg == nil {
		return
	}
	reg.Counter("engine_runs_total", "Engine plan executions started.").Inc()
	if res == nil {
		reg.Counter("engine_run_errors_total", "Engine plan executions that failed.").Inc()
		return
	}
	reg.Histogram("engine_run_cluster_vms", "Total cluster processing time per run, virtual ms.").ObserveExemplar(res.ClusterTime, traceID)
	reg.Histogram("engine_run_latency_vms", "Modeled end-to-end latency per run, virtual ms.").ObserveExemplar(res.Latency, traceID)
	reg.Histogram("engine_run_wall_ns", "Real wall-clock duration per run, nanoseconds.").ObserveExemplar(float64(wallNS), traceID)
}

// opMetricName labels an operator's series. A Select's and a PP filter's
// names spell query text, so each is labeled by its kind: one series per
// distinct predicate would grow the registry with every ad-hoc query.
func opMetricName(op Operator) string {
	switch op.(type) {
	case *Select:
		return "σ"
	case *PPFilter:
		return "PP"
	}
	return op.Name()
}

// emitOpMetrics records one plan position's accumulated work within a run.
func emitOpMetrics(reg *metrics.Registry, op Operator, acc *opAcc) {
	if reg == nil {
		return
	}
	opLabel := metrics.L("op", opMetricName(op))
	reg.Counter("engine_op_rows_in_total", "Rows entering each operator.", opLabel).Add(float64(acc.rowsIn))
	reg.Counter("engine_op_rows_out_total", "Rows leaving each operator.", opLabel).Add(float64(acc.rowsOut))
	reg.Histogram("engine_op_cost_vms", "Virtual cost charged per operator execution, virtual ms.", opLabel).Observe(acc.cost)
	reg.Histogram("engine_op_wall_ns", "Real wall-clock duration per operator execution, nanoseconds.", opLabel).Observe(float64(acc.wallNS))
	if acc.tally.retries > 0 {
		reg.Counter("engine_retries_total", "Transient row failures retried by the engine.", opLabel).Add(float64(acc.tally.retries))
	}
	if acc.tally.timeouts > 0 {
		reg.Counter("engine_row_timeouts_total", "Row attempts killed at the per-row virtual timeout.", opLabel).Add(float64(acc.tally.timeouts))
	}
	if _, ok := op.(*PPFilter); ok {
		reg.Counter("engine_ppfilter_tested_total", "Blobs tested by injected PP filters.").Add(float64(acc.rowsIn))
		reg.Counter("engine_ppfilter_passed_total", "Blobs passing injected PP filters.").Add(float64(acc.rowsOut))
		hits, misses := acc.ctally.Counts()
		if hits > 0 {
			reg.Counter("engine_ppfilter_cache_hits_total", "PP score lookups served from the score cache.").Add(float64(hits))
		}
		if misses > 0 {
			reg.Counter("engine_ppfilter_cache_misses_total", "PP score lookups that missed the score cache.").Add(float64(misses))
		}
	}
}
