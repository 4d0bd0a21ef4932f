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
)

// ShardedConfig configures a Coordinator.
type ShardedConfig struct {
	// Base is the per-replica server template: optimizer, accuracy target,
	// domains, per-replica MaxConcurrent (the shard's worker-pool width),
	// exec environment, score-cache mode and Routing policy. Base.Builder is
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
// (nil on the merged response when Shards > 1). A request's explicit Blobs
// are split across the legs as the corpus is. When any shard fails the
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
	ss := session{req: req, policy: c.router.Name()}
	var name string
	ss.trace, name = identify(req)
	ss.span = tr.BeginCtx(obs.TraceContext{TraceID: ss.trace}, obs.KindSession, name)
	ss.span.SetAttr("scatter", strconv.Itoa(len(c.shards)))
	ss.span.SetAttr("policy", ss.policy)
	ss.start = time.Now()
	// A session that produced no response is counted, traced and logged,
	// whether a shard failed or the request was rejected — as a Server
	// treats its failed sessions.
	if ss.resp, ss.err = c.scatter(&ss); ss.err != nil {
		c.failures.Add(1)
	}
	return ss.finish(tr, c.cfg.Base.QueryLog, nil, c.accuracy)
}

// scatter validates the session's request, runs one leg per shard in
// parallel and merges them, recording the plan key, the legs and the merged
// admission wait on the session as they become known.
func (c *Coordinator) scatter(ss *session) (*Response, error) {
	req := ss.req
	accuracy, err := validate(req, c.accuracy)
	if err != nil {
		return nil, err
	}
	ss.key = optimizer.PlanKey(req.Pred, accuracy)
	ss.span.SetAttr("plan_key", ss.key)
	ctx := obs.TraceContext{TraceID: ss.trace, SpanID: ss.span.ID}

	// An explicit segment is split as the corpus is: contiguously, so the
	// shard-index-order gather reproduces the segment's own order.
	var segs [][]blob.Blob
	if req.Blobs != nil {
		segs = SplitBlobs(req.Blobs, len(c.shards))
	}
	ss.legs = make([]leg, len(c.shards))
	var wg sync.WaitGroup
	for i, sh := range c.shards {
		pick := c.router.Pick(sh.index, ss.key, sh.replicas)
		if pick < 0 || pick >= len(sh.replicas) {
			pick = 0
		}
		ss.legs[i] = leg{shard: i, replica: pick}
		c.routeDecisions.Inc()
		sh.publishLoad()
		lreq := req
		lreq.Trace = ss.trace
		lreq.leg = &legInfo{shard: i, replica: pick, policy: ss.policy, parent: ctx}
		if segs != nil {
			lreq.Blobs = segs[i]
		}
		wg.Add(1)
		go func(l *leg, srv *Server) {
			defer wg.Done()
			l.resp, l.err = srv.Do(lreq)
		}(&ss.legs[i], sh.replicas[pick])
	}
	wg.Wait()
	for _, sh := range c.shards {
		sh.publishLoad()
	}

	var failed []error
	for i := range ss.legs {
		if l := &ss.legs[i]; l.err != nil {
			failed = append(failed, fmt.Errorf("shard %d (replica %d): %w", l.shard, l.replica, l.err))
			c.recordShardFailure(ctx, l.shard, l.err)
		}
	}
	if len(failed) > 0 {
		return nil, fmt.Errorf("serve: scatter %q: %w", req.ID, errors.Join(failed...))
	}
	resp := mergeLegs(ss.legs)
	ss.wait = resp.QueueWait
	return resp, nil
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
	res := &engine.Result{}
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
