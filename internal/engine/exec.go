package engine

import (
	"probpred/internal/metrics"
	"probpred/internal/obs"
)

// Plan is a linear chain of operators, source first.
type Plan struct{ Ops []Operator }

// Config controls the execution environment model.
type Config struct {
	// Parallelism is the number of cluster partitions. Zero selects 16.
	Parallelism int
	// Workers sets how many goroutines execute the row-parallel work: each
	// PP filter's TestBatch in the source stage, and the row stage, split
	// once at its input into worker ranges. It affects only wall-clock
	// execution of the simulator, never results; virtual costs are
	// deterministic for a given worker count. Processors must be safe for
	// concurrent Apply calls on disjoint batches when Workers > 1. Zero
	// or one is sequential.
	Workers int
	// StageOverheadMS is the fixed overhead charged to latency per stage:
	// job-wave scheduling, shuffle/materialization setup, and stragglers.
	// Data-parallel clusters pay this per serialized stage regardless of
	// stage size, which is why SortP's serialized predicate stages lose
	// latency even while saving resources (§8.2). Zero selects 15000
	// virtual ms (~15 s per stage, typical for a Cosmos-style batch stage);
	// set NoStageOverhead to model an overhead-free substrate.
	StageOverheadMS float64
	// NoStageOverhead disables the per-stage latency overhead entirely.
	// It exists because StageOverheadMS is defaulted on zero, which would
	// otherwise make "no stage overhead" inexpressible.
	NoStageOverhead bool
	// Retry governs transient row-level UDF failures: attempt budget,
	// exponential backoff charged in virtual ms, and the per-attempt
	// timeout that turns stragglers into retries. The zero value disables
	// retries and timeouts.
	Retry RetryPolicy
	// Obs receives execution spans: one root span per Run, one span per
	// operator (wall-clock, virtual cost, cardinalities) emitted in plan
	// order when the run ends, and per-chunk child spans on the row-parallel
	// path. Nil disables tracing at near-zero overhead.
	Obs *obs.Tracer
	// Trace is the session trace context the run belongs to: the run span
	// carries its TraceID (inherited by operator and chunk spans) and is
	// parented under its SpanID. The zero value leaves spans untraced.
	Trace obs.TraceContext
	// Metrics receives numeric telemetry: per-operator cost/wall/cardinality
	// histograms and counters, run totals, PP filter pass counters, and
	// retry/timeout counters. Instruments are resolved per operator per run,
	// never per row, so the batch hot path stays allocation-free with a live
	// registry. Nil disables metrics at one pointer check per run.
	Metrics *metrics.Registry
}

func (c *Config) fill() {
	if c.Parallelism == 0 {
		c.Parallelism = 16
	}
	if c.NoStageOverhead {
		c.StageOverheadMS = 0
	} else if c.StageOverheadMS == 0 {
		c.StageOverheadMS = 15000
	}
}

// OpStats is one operator's accounting, keyed by plan position rather than
// name: two operators sharing a Name() (e.g. the same UDF applied twice)
// stay distinct.
type OpStats struct {
	// Name is the operator's display name (not necessarily unique).
	Name string
	// RowsIn / RowsOut are this operator's own cardinalities.
	RowsIn, RowsOut int
	// Cost is the virtual cost this operator alone charged.
	Cost float64
	// WallNS is the operator's real wall-clock duration. Unlike spans it is
	// measured unconditionally (two clock reads per operator), so EXPLAIN
	// ANALYZE works without attaching a sink.
	WallNS int64
	// StageBoundary mirrors the operator's StageBoundary() at execution
	// time, letting renderers regroup PerOp rows into stages.
	StageBoundary bool
	// PPFilter marks injected probabilistic-predicate filters, whose
	// rows-out/rows-in ratio is the observed PP pass rate.
	PPFilter bool
	// Retries / Timeouts count this operator's retried transient failures
	// and row-timeout kills.
	Retries, Timeouts int
	// CacheHits / CacheMisses count this operator's PP score-cache lookups
	// during THIS run only. The counters are tallied per Run invocation, not
	// on the (possibly shared) filter object, so concurrent sessions
	// executing the same compiled plan each see exactly their own lookups.
	// Both stay zero for filters without an attached score cache.
	CacheHits, CacheMisses uint64
}

// Result is the outcome of running a plan.
type Result struct {
	// Rows is the query output.
	Rows []Row
	// ClusterTime is total resource usage in virtual milliseconds.
	ClusterTime float64
	// Latency is the modeled end-to-end time in virtual milliseconds:
	// per-stage work divides across partitions and pipelines within a
	// stage, while stage boundaries serialize and add scheduling overhead.
	Latency float64
	// Stages is the number of pipeline stages in the plan.
	Stages int
	// PerOp is the run's one ledger: per-operator cardinalities, virtual
	// cost and wall time in plan position order. Its costs sum to ClusterTime.
	PerOp []OpStats
	// Swaps lists the mid-run plan hot-swaps an adaptive run performed
	// (RunAdaptive; empty for plain runs).
	Swaps []PlanSwap
	// Chunks is how many adaptive chunks executed (zero for plain runs and
	// for plans with nothing to adapt).
	Chunks int
	// SwapErrors counts swap-decider errors the run absorbed by continuing
	// on its current plan.
	SwapErrors int
}

// Run executes the plan and returns rows plus cost accounting. The first
// operator must be a source (it receives a nil input batch). When the run
// fails, work performed before the failure is still charged to the
// operator and visible on the emitted spans (the trace is how a
// failed run's cost is inspected; the Result itself is nil). It is
// RunAdaptive with nothing to adapt: one chunk and no swap decider.
func Run(p Plan, cfg Config) (*Result, error) {
	return RunAdaptive(p, cfg, AdaptiveConfig{})
}
