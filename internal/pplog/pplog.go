// Package pplog is the structured query log: one JSONL record per served
// session, written off the serve path by a bounded non-blocking writer and
// joined offline with span dumps (flight recorder or JSON sink) by the
// analyzer. Where internal/obs answers "what happened inside this session"
// and internal/metrics answers "how is the fleet doing in aggregate", pplog
// is the per-query middle layer: enough structure to find the slow, the
// misestimated and the skewed sessions, keyed by the same TraceID the spans
// and histogram exemplars carry.
package pplog

// Leg is one shard leg's contribution to a sharded session, recorded on the
// session's record.
type Leg struct {
	// Shard is the shard index; Replica the replica chosen by the router.
	Shard   int `json:"shard"`
	Replica int `json:"replica"`
	// QueueWaitNS / ServiceNS split the leg's latency at its replica's
	// admission point.
	QueueWaitNS int64 `json:"queue_wait_ns"`
	ServiceNS   int64 `json:"service_ns"`
	// Rows is the leg's result cardinality before the merge.
	Rows int `json:"rows"`
	// Error is the leg's failure, if any.
	Error string `json:"error,omitempty"`
}

// SegInfo identifies the stream segment a standing-query session covered
// (nil on non-streaming records).
type SegInfo struct {
	// Index is the segment's 0-based arrival order; Version the segmented
	// corpus version after it landed.
	Index   int    `json:"index"`
	Version uint64 `json:"version"`
}

// Record is one query-log entry: every served session writes exactly one,
// keyed by its TraceID. A session of a server with more than one shard ×
// replica also lists its legs and the routing policy that placed them.
type Record struct {
	// TimeUnixNS is when the session completed.
	TimeUnixNS int64 `json:"time_unix_ns"`
	// TraceID is the session trace ID shared by every span, event and
	// histogram exemplar of this session.
	TraceID string `json:"trace_id"`
	// Session is the request ID (serve.Request.ID).
	Session string `json:"session,omitempty"`
	// PlanKey is the plan-cache key: the canonical predicate and the
	// accuracy target (optimizer.PlanKey).
	PlanKey string `json:"plan_key,omitempty"`
	// Accuracy is the requested per-query accuracy target.
	Accuracy float64 `json:"accuracy,omitempty"`
	// PlanCached reports whether the plan came from the plan cache.
	PlanCached bool `json:"plan_cached"`
	// QueueWaitNS (enqueue→admit, a sharded session's slowest leg's) and
	// ServiceNS (the rest) split the session's wall time at the admission
	// semaphore.
	QueueWaitNS int64 `json:"queue_wait_ns"`
	ServiceNS   int64 `json:"service_ns"`
	// Rows is the result cardinality; ClusterVMS the virtual cluster cost.
	Rows       int     `json:"rows,omitempty"`
	ClusterVMS float64 `json:"cluster_vms,omitempty"`
	// PPTested / PPPassed count rows through the session's PP filters.
	PPTested int `json:"pp_tested,omitempty"`
	PPPassed int `json:"pp_passed,omitempty"`
	// EstReduction is the optimizer's predicted input reduction from the
	// injected PPs; ObsReduction what the run actually measured. Their gap
	// is the misestimate the analyzer reports.
	EstReduction float64 `json:"est_reduction,omitempty"`
	ObsReduction float64 `json:"obs_reduction,omitempty"`
	// AdaptSwaps counts mid-query plan swaps taken by the adapt controller.
	AdaptSwaps int `json:"adapt_swaps,omitempty"`
	// Seg tags standing-query records with the stream segment they covered.
	Seg *SegInfo `json:"seg,omitempty"`
	// Legs lists a sharded session's legs in shard order.
	Legs []Leg `json:"legs,omitempty"`
	// Policy is the routing policy that placed the legs.
	Policy string `json:"policy,omitempty"`
	// Error is the session failure, if any.
	Error string `json:"error,omitempty"`
}

// TotalNS is the session's end-to-end latency (queue wait plus service).
func (r *Record) TotalNS() int64 { return r.QueueWaitNS + r.ServiceNS }
