package serve

// Sharded scatter-gather serving: the step from "one process, one corpus" to
// horizontally scaled inference. The blob corpus is partitioned into N
// contiguous shards; each shard owns one or more replicas — a replica is a
// full Server with its own worker pool (admission semaphore), plan cache and
// PP-score cache over the shard's slice. A Coordinator fans each session out
// to every shard (scatter), a pluggable Router picks the serving replica per
// shard, legs PP-filter their slices in parallel, and the gather merges
// per-shard results deterministically: rows concatenate in shard-index order
// (the contiguous split makes that exactly global blob-ID order), virtual
// cluster cost sums, and per-operator accounting sums positionally. Because
// every engine cost in these plans is charged strictly per row, the merged
// rows, row order and ClusterTime are byte-identical to unsharded execution
// — sharding, like the caches, is a pure wall-clock optimization.

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"probpred/internal/blob"
	"probpred/internal/engine"
	"probpred/internal/metrics"
	"probpred/internal/obs"
	"probpred/internal/optimizer"
	"probpred/internal/pplog"
)

// ShardedConfig configures a Coordinator.
type ShardedConfig struct {
	// Base is the per-replica server template: optimizer, accuracy target,
	// domains, per-replica MaxConcurrent (the shard's worker-pool width),
	// exec environment, cache sizes and Routing policy. Base.Builder is
	// ignored — plans are assembled by Builder below, bound to each shard's
	// corpus slice.
	Base Config
	// Shards is the number of corpus partitions. Zero selects 1.
	Shards int
	// Replicas is the number of worker sets (full Servers) per shard — the
	// replica fan-out hook that lets a hot shard be served by more than one
	// worker set. Zero selects 1.
	Replicas int
	// Corpus is the full blob stream, partitioned contiguously across
	// shards. Required.
	Corpus []blob.Blob
	// Builder assembles per-shard plans over injected corpus slices.
	// Required.
	Builder CorpusBuilder
}

// SplitBlobs partitions blobs into n contiguous slices (the first
// len(blobs)%n slices are one longer). Contiguity is what makes the
// shard-index-order gather reproduce the unsharded scan order exactly.
func SplitBlobs(blobs []blob.Blob, n int) [][]blob.Blob {
	if n < 1 {
		n = 1
	}
	out := make([][]blob.Blob, n)
	base, rem := len(blobs)/n, len(blobs)%n
	at := 0
	for i := range out {
		size := base
		if i < rem {
			size++
		}
		out[i] = blobs[at : at+size]
		at += size
	}
	return out
}

// shard is one corpus partition and its replica set.
type shard struct {
	index    int
	blobs    []blob.Blob
	replicas []*Server
	// queueDepth / active are the shard's load gauges, resolved once at
	// NewSharded (nil, and no-ops, without a registry).
	queueDepth, active *metrics.Gauge
}

// Coordinator serves sessions scatter-gather over sharded replicas. Safe for
// concurrent Do calls.
type Coordinator struct {
	cfg      ShardedConfig
	shards   []*shard
	router   Router
	accuracy float64 // resolved default accuracy (Base.Accuracy, 0 → 1)

	sessions, failures atomic.Uint64

	// routeDecisions counts routed scatter legs under the coordinator's one
	// policy (nil without a registry).
	routeDecisions *metrics.Counter
}

// NewSharded validates the config, partitions the corpus and builds
// Shards × Replicas replica servers. All replicas share the coordinator's
// optimizer (Base.Optimizer), and each gets its own plan cache, score cache
// and admission semaphore over its shard's corpus slice.
func NewSharded(cfg ShardedConfig) (*Coordinator, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Builder == nil {
		return nil, fmt.Errorf("serve: ShardedConfig.Builder is required")
	}
	if len(cfg.Corpus) < cfg.Shards {
		return nil, fmt.Errorf("serve: corpus of %d blobs cannot fill %d shards", len(cfg.Corpus), cfg.Shards)
	}
	c := &Coordinator{cfg: cfg, accuracy: cfg.Base.Accuracy}
	if c.accuracy == 0 {
		c.accuracy = 1
	}
	slices := SplitBlobs(cfg.Corpus, cfg.Shards)
	for i, slice := range slices {
		sh := &shard{
			index: i, blobs: slice,
			queueDepth: cfg.Base.Metrics.Gauge("serve_shard_queue_depth", "Sessions waiting for a slot on this shard (all replicas).", shardLabel(i)),
			active:     cfg.Base.Metrics.Gauge("serve_shard_active", "Sessions executing on this shard (all replicas).", shardLabel(i)),
		}
		for r := 0; r < cfg.Replicas; r++ {
			rcfg := cfg.Base
			rcfg.Builder = BindCorpus(cfg.Builder, slice)
			srv, err := New(rcfg)
			if err != nil {
				return nil, fmt.Errorf("serve: shard %d replica %d: %w", i, r, err)
			}
			sh.replicas = append(sh.replicas, srv)
		}
		c.shards = append(c.shards, sh)
	}
	// fill() validated Routing on the first replica; read the defaulted
	// value back off it so an empty policy resolves to round-robin here too.
	c.router = newRouter(c.shards[0].replicas[0].cfg.Routing, cfg.Shards)
	c.routeDecisions = cfg.Base.Metrics.Counter("serve_route_decisions_total", "Scatter legs routed, by policy.",
		metrics.L("policy", c.router.Name()))
	return c, nil
}

// Routing reports the coordinator's effective routing policy.
func (c *Coordinator) Routing() RoutingPolicy {
	return c.shards[0].replicas[0].cfg.Routing
}

// leg is one shard's portion of a scattered session.
type leg struct {
	shard   int
	replica int
	resp    *Response
	err     error
}

// Do serves one session scatter-gather: route a leg per shard, run the legs
// in parallel, and merge. The merged Response carries the concatenated rows
// (global blob order), summed cluster cost and positionally summed PerOp
// stats; QueueWait is the slowest leg's admission wait and Service the
// scatter-to-merge wall time. Adapt reports are per-leg and are not merged
// (nil on the merged response when Shards > 1). When any shard fails the
// session fails: every failing shard's error is aggregated with its shard
// index attributed, a shard.fail event is emitted per failure (tripping
// FlightRecorder auto-dump), and completed legs are discarded — graceful
// degradation is "the query errors out attributed", never a hang.
func (c *Coordinator) Do(req Request) (*Response, error) {
	c.sessions.Add(1)

	// One trace for the whole scatter: the coordinator mints it (or adopts
	// the caller's), every leg serves under it, and the coordinator span is
	// the parent every leg session span hangs off.
	tr := c.cfg.Base.Obs
	trace, name := identify(req)
	policy := c.router.Name()
	span := tr.BeginCtx(obs.TraceContext{TraceID: trace}, obs.KindSession, name)
	span.SetAttr("scatter", strconv.Itoa(len(c.shards)))
	span.SetAttr("policy", policy)
	ctx := obs.TraceContext{TraceID: trace, SpanID: span.ID}
	start := time.Now()
	// fail closes a session that produced no response: counted, traced and
	// logged, whether a shard failed or the request was rejected — as a
	// Server treats its failed sessions.
	fail := func(legs []leg, key string, acc float64, err error) (*Response, error) {
		c.failures.Add(1)
		span.SetAttr("error", err.Error())
		tr.End(&span)
		c.logScatter(req, nil, legs, trace, key, acc, time.Since(start), err)
		return nil, err
	}
	accuracy, err := validate(req, c.accuracy)
	if err != nil {
		return fail(nil, "", req.Accuracy, err)
	}
	key := optimizer.PlanKey(req.Pred, accuracy)
	span.SetAttr("plan_key", key)

	legs := make([]leg, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		pick := c.router.Pick(sh.index, key, sh.replicas)
		if pick < 0 || pick >= len(sh.replicas) {
			pick = 0
		}
		legs[i] = leg{shard: i, replica: pick}
		c.routeDecisions.Inc()
		sh.publishLoad()
		wg.Add(1)
		go func(l *leg, srv *Server) {
			defer wg.Done()
			lreq := req
			lreq.Trace = trace
			lreq.leg = &legInfo{shard: l.shard, replica: l.replica, policy: policy, parent: ctx}
			l.resp, l.err = srv.Do(lreq)
		}(&legs[i], sh.replicas[pick])
	}
	wg.Wait()
	for _, sh := range c.shards {
		sh.publishLoad()
	}

	var failed []error
	for i := range legs {
		if legs[i].err != nil {
			failed = append(failed, fmt.Errorf("shard %d (replica %d): %w", legs[i].shard, legs[i].replica, legs[i].err))
			c.recordShardFailure(ctx, legs[i].shard, legs[i].err)
		}
	}
	if len(failed) > 0 {
		return fail(legs, key, accuracy, fmt.Errorf("serve: scatter %q: %w", req.ID, errors.Join(failed...)))
	}
	resp := mergeLegs(legs)
	resp.Service = time.Since(start)
	resp.TraceID = trace
	span.RowsOut = len(resp.Result.Rows)
	span.CostVMS = resp.Result.ClusterTime
	tr.End(&span)
	c.logScatter(req, resp, legs, trace, key, accuracy, resp.Service, nil)
	return resp, nil
}

// logScatter writes the coordinator's merged query-log record: the session
// view (Leg nil) with per-leg timings attached. Each leg's replica server has
// already written its own leg record under the same TraceID.
func (c *Coordinator) logScatter(req Request, resp *Response, legs []leg, trace, key string, acc float64, service time.Duration, err error) {
	qlog := c.cfg.Base.QueryLog
	if qlog == nil {
		return
	}
	rec := pplog.Record{
		TimeUnixNS: time.Now().UnixNano(),
		TraceID:    trace,
		Session:    req.ID,
		PlanKey:    key,
		Accuracy:   acc,
		ServiceNS:  service.Nanoseconds(),
		Policy:     c.router.Name(),
	}
	for i := range legs {
		l := pplog.Leg{Shard: legs[i].shard, Replica: legs[i].replica}
		if r := legs[i].resp; r != nil {
			l.QueueWaitNS = r.QueueWait.Nanoseconds()
			l.ServiceNS = r.Service.Nanoseconds()
			if r.Result != nil {
				l.Rows = len(r.Result.Rows)
			}
		}
		if legs[i].err != nil {
			l.Error = legs[i].err.Error()
		}
		rec.Legs = append(rec.Legs, l)
	}
	fillRecord(&rec, resp, err)
	qlog.Log(rec)
}

// mergeLegs gathers successful legs (shard-index order) into one response.
func mergeLegs(legs []leg) *Response {
	first := legs[0].resp
	if len(legs) == 1 {
		return first
	}
	merged := &Response{
		ID:         first.ID,
		Decision:   first.Decision,
		PlanKey:    first.PlanKey,
		PlanCached: true,
	}
	res := &engine.Result{
		Stats: &engine.Stats{
			OpCost:  map[string]float64{},
			RowsIn:  map[string]int{},
			RowsOut: map[string]int{},
		},
	}
	total := 0
	for i := range legs {
		total += len(legs[i].resp.Result.Rows)
	}
	res.Rows = make([]engine.Row, 0, total)
	samePlanShape := true
	for i := range legs {
		l := legs[i].resp
		r := l.Result
		// Shard-index order; each slice is already in blob order, and the
		// contiguous split makes the concatenation globally blob-ordered.
		res.Rows = append(res.Rows, r.Rows...)
		res.ClusterTime += r.ClusterTime
		// Legs execute in parallel: modeled end-to-end latency is the
		// slowest shard, not the sum.
		if r.Latency > res.Latency {
			res.Latency = r.Latency
		}
		if r.Stages > res.Stages {
			res.Stages = r.Stages
		}
		res.Chunks += r.Chunks
		res.SwapErrors += r.SwapErrors
		res.Swaps = append(res.Swaps, r.Swaps...)
		res.Stats.Cluster += r.Stats.Cluster
		for k, v := range r.Stats.OpCost {
			res.Stats.OpCost[k] += v
		}
		for k, v := range r.Stats.RowsIn {
			res.Stats.RowsIn[k] += v
		}
		for k, v := range r.Stats.RowsOut {
			res.Stats.RowsOut[k] += v
		}
		if len(r.PerOp) != len(legs[0].resp.Result.PerOp) {
			samePlanShape = false
		}
		if !l.PlanCached {
			merged.PlanCached = false
		}
		if l.QueueWait > merged.QueueWait {
			merged.QueueWait = l.QueueWait
		}
	}
	if samePlanShape {
		res.PerOp = make([]engine.OpStats, len(first.Result.PerOp))
		for i := range legs {
			for j, op := range legs[i].resp.Result.PerOp {
				m := &res.PerOp[j]
				m.Name, m.StageBoundary, m.PPFilter = op.Name, op.StageBoundary, op.PPFilter
				m.RowsIn += op.RowsIn
				m.RowsOut += op.RowsOut
				m.Cost += op.Cost
				m.WallNS += op.WallNS
				m.Retries += op.Retries
				m.Timeouts += op.Timeouts
				m.CacheHits += op.CacheHits
				m.CacheMisses += op.CacheMisses
			}
		}
	}
	merged.Result = res
	return merged
}

// publishLoad republishes the shard's live queue-depth and active session
// counts (summed over its replicas) on its gauges.
func (sh *shard) publishLoad() {
	if sh.queueDepth == nil {
		return
	}
	var queued, active int64
	for _, r := range sh.replicas {
		q, a := r.Load()
		queued += q
		active += a
	}
	sh.queueDepth.Set(float64(queued))
	sh.active.Set(float64(active))
}

// recordShardFailure counts a failed leg and emits the shard.fail event that
// trips FlightRecorder auto-dump, so the trace ring around the failure is
// preserved. The event carries the session's trace context.
func (c *Coordinator) recordShardFailure(ctx obs.TraceContext, shardIdx int, err error) {
	if reg := c.cfg.Base.Metrics; reg != nil {
		reg.Counter("serve_shard_failures_total", "Scatter legs that failed, by shard.", shardLabel(shardIdx)).Inc()
	}
	c.cfg.Base.Obs.EventCtx(ctx, "shard.fail",
		obs.Attr{Key: "shard", Value: strconv.Itoa(shardIdx)},
		obs.Attr{Key: "error", Value: err.Error()})
}

// Stats sums session and cache counters across every replica and adds the
// coordinator's own scatter counters. ScatterSessions counts merged sessions
// (each fans out to Shards legs, so Sessions ≈ ScatterSessions × Shards).
func (c *Coordinator) Stats() Stats {
	var out Stats
	for _, sh := range c.shards {
		for _, r := range sh.replicas {
			st := r.Stats()
			out.Sessions += st.Sessions
			out.PlanHits += st.PlanHits
			out.PlanMisses += st.PlanMisses
			out.PlanInvalidations += st.PlanInvalidations
			out.PlanRevalidations += st.PlanRevalidations
			out.PlanEntries += st.PlanEntries
			out.ScoreHits += st.ScoreHits
			out.ScoreMisses += st.ScoreMisses
			out.ScoreEntries += st.ScoreEntries
			out.PlanDemotions += st.PlanDemotions
			out.PlanPromotions += st.PlanPromotions
		}
	}
	out.ScatterSessions = c.sessions.Load()
	out.ScatterFailures = c.failures.Load()
	return out
}

// ReplicaStats snapshots every replica's counters, indexed [shard][replica]
// — the per-shard view behind cache-warmth assertions and reports.
func (c *Coordinator) ReplicaStats() [][]Stats {
	out := make([][]Stats, len(c.shards))
	for i, sh := range c.shards {
		out[i] = make([]Stats, len(sh.replicas))
		for j, r := range sh.replicas {
			out[i][j] = r.Stats()
		}
	}
	return out
}

// Shards reports the shard count.
func (c *Coordinator) Shards() int { return len(c.shards) }

// Invalidate drops every replica's cached plans.
func (c *Coordinator) Invalidate() {
	for _, sh := range c.shards {
		for _, r := range sh.replicas {
			r.Invalidate()
		}
	}
}

func shardLabel(i int) metrics.Label { return metrics.L("shard", strconv.Itoa(i)) }

// Replay mirrors Server.Replay over the coordinator: it parses and serves a
// workload at the given concurrency, responses in workload order, failures
// aggregated per query (errors.Join), never aborting the rest.
func (c *Coordinator) Replay(workload []WorkloadQuery, concurrency int) ([]*Response, error) {
	return replay(c, workload, concurrency)
}
