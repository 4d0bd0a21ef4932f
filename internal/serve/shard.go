package serve

// Sharded scatter-gather serving: the step from "one process, one corpus" to
// horizontally scaled inference. The blob corpus is partitioned into N
// contiguous shards; each shard owns one or more replicas — a replica is a
// private worker set (admission semaphore), plan cache and PP-score cache
// over the shard's slice. A session fans out one leg per shard (scatter),
// each shard rotates its legs through its replicas, legs PP-filter their
// slices in parallel, and the gather merges per-shard results
// deterministically: rows concatenate in shard-index order (the contiguous
// split makes that exactly global blob-ID order), virtual cluster cost sums,
// and per-operator accounting sums positionally. Because every engine cost
// in these plans is charged strictly per row, the merged rows, row order and
// ClusterTime are byte-identical to unsharded execution — sharding, like the
// caches, is a pure wall-clock optimization.

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"probpred/internal/blob"
	"probpred/internal/engine"
	"probpred/internal/metrics"
	"probpred/internal/obs"
	"probpred/internal/optimizer"
)

// ShardedConfig configures a sharded Server.
type ShardedConfig struct {
	// Base is the server template: optimizer, accuracy target, domains,
	// per-replica MaxConcurrent (each replica's worker-pool width), exec
	// environment, score-cache mode and telemetry sinks.
	// Base.Builder is ignored — plans are assembled by Builder below, bound
	// to each shard's corpus slice.
	Base Config
	// Shards is the number of corpus partitions. Zero selects 1.
	Shards int
	// Replicas is the number of worker sets per shard, each with its own
	// plan cache, score cache and admission semaphore — the fan-out hook
	// that lets a hot shard be served by more than one worker set. Zero
	// selects 1.
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

// NewSharded validates the config, partitions the corpus and builds a
// Shards × Replicas server. Every replica plans on Base.Optimizer and owns
// its plan cache, score cache and admission semaphore over its shard's
// corpus slice.
func NewSharded(cfg ShardedConfig) (*Server, error) {
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
	base := cfg.Base
	base.Builder = BindCorpus(cfg.Builder, cfg.Corpus)
	if err := base.fill(); err != nil {
		return nil, err
	}
	return build(base, SplitBlobs(cfg.Corpus, cfg.Shards), cfg.Replicas), nil
}

// shard is one corpus partition and its replica set.
type shard struct {
	blobs    []blob.Blob
	replicas []*replica
	// next is the shard's rotation counter: legs reach its replicas round
	// robin in arrival order, independently of how other shards route.
	// Routing never affects outputs (PP scores are pure, both caches
	// transparent), only wall-clock latency and cache warmth.
	next atomic.Uint64
}

// pick returns the index of the replica that serves the shard's next leg.
func (sh *shard) pick() int {
	return int((sh.next.Add(1) - 1) % uint64(len(sh.replicas)))
}

// replica is one worker set over its shard's corpus slice.
type replica struct {
	plans  *planCache
	scores *optimizer.ScoreColumns
	// scoreHits / scoreMisses total the score lookups of the legs the
	// replica completed, added once per leg from the run's ledger, so a
	// lookup itself writes nothing shared.
	scoreHits, scoreMisses atomic.Uint64
	// sem is the admission semaphore bounding the replica's concurrently
	// executing legs.
	sem chan struct{}
	// queued / active are the live load the load gauges read.
	queued, active atomic.Int64
	// legs counts the legs the replica served (its ReplicaStats Sessions).
	legs atomic.Uint64
}

// addStats adds the replica's cache counters to st.
func (r *replica) addStats(st *Stats) {
	st.PlanHits += r.plans.hits.Load()
	st.PlanMisses += r.plans.misses.Load()
	st.PlanInvalidations += r.plans.invalidations.Load()
	st.PlanRevalidations += r.plans.revalidations.Load()
	st.PlanEntries += r.plans.len()
	st.ScoreHits += r.scoreHits.Load()
	st.ScoreMisses += r.scoreMisses.Load()
	st.ScoreEntries += r.scores.Len()
}

// scatter routes one leg per shard, runs them — inline on one shard, side
// by side on more — and merges them. The merged Response carries the
// concatenated rows (global blob order), summed cluster cost and
// positionally summed PerOp stats. A request's explicit Blobs are split across the legs as the corpus is.
// Each leg gets a span under the session's, tagged shard and replica.
// When any shard fails the session fails: every failing shard's
// error is aggregated with its shard index attributed, a shard.fail event
// is emitted per failure (tripping FlightRecorder auto-dump), and completed
// legs are discarded — graceful degradation is "the query errors out
// attributed", never a hang.
func (s *Server) scatter(ss *session, accuracy float64, name string) (*Response, error) {
	tr, req, key := s.cfg.Obs, ss.req, ss.key
	ss.span.SetAttr("scatter", strconv.Itoa(len(s.shards)))
	ss.span.SetAttr("plan_key", key)
	ctx := obs.TraceContext{TraceID: req.Trace, SpanID: ss.span.ID}

	// An explicit segment is split as the corpus is: contiguously, so the
	// shard-index-order gather reproduces the segment's own order.
	var segs [][]blob.Blob
	if req.Blobs != nil {
		segs = SplitBlobs(req.Blobs, len(s.shards))
	}
	legs := make([]leg, len(s.shards))
	ss.legs = legs
	for i, sh := range s.shards {
		legs[i] = leg{shard: i, replica: sh.pick(), blobs: sh.blobs}
		if segs != nil {
			legs[i].blobs = segs[i]
		}
	}
	run := func(l *leg) {
		sp := tr.BeginCtx(ctx, obs.KindSession, name)
		sp.SetAttr("shard", strconv.Itoa(l.shard))
		sp.SetAttr("replica", strconv.Itoa(l.replica))
		s.runLeg(l, req, key, accuracy, &sp)
		endSpan(tr, &sp, l.resp, l.err)
	}
	if len(legs) == 1 {
		run(&legs[0])
	} else {
		var wg sync.WaitGroup
		for i := range legs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				run(&legs[i])
			}()
		}
		wg.Wait()
	}

	var failed []error
	for i := range legs {
		l := &legs[i]
		ss.wait = max(ss.wait, l.wait)
		if l.err != nil {
			failed = append(failed, fmt.Errorf("shard %d (replica %d): %w", l.shard, l.replica, l.err))
			// The shard.fail event trips FlightRecorder auto-dump, so the
			// trace ring around the failure is preserved.
			if reg := s.cfg.Metrics; reg != nil {
				reg.Counter("serve_shard_failures_total", "Legs that failed, by shard.", shardLabel(l.shard)).Inc()
			}
			tr.EventCtx(ctx, "shard.fail",
				obs.Attr{Key: "shard", Value: strconv.Itoa(l.shard)},
				obs.Attr{Key: "error", Value: l.err.Error()})
		}
	}
	if len(failed) > 0 {
		return nil, fmt.Errorf("serve: scatter %q: %w", req.ID, errors.Join(failed...))
	}
	return mergeLegs(legs), nil
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
		samePlanShape = samePlanShape && samePlan(r.PerOp, first.Result.PerOp)
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

// samePlan reports whether two legs ran the same plan, operator by
// operator. Each replica caches its own plans, so a retrain landing between
// two legs' resolves can hand them plans of one shape whose PP filters
// differ.
func samePlan(a, b []engine.OpStats) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if a[j].Name != b[j].Name || a[j].PPFilter != b[j].PPFilter {
			return false
		}
	}
	return true
}

// ReplicaStats snapshots every replica's counters, indexed [shard][replica]
// — the per-shard view behind cache-warmth assertions and reports. Each
// entry's Sessions counts the legs that replica served.
func (s *Server) ReplicaStats() [][]Stats {
	out := make([][]Stats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = make([]Stats, len(sh.replicas))
		for j, r := range sh.replicas {
			r.addStats(&out[i][j])
			out[i][j].Sessions = r.legs.Load()
		}
	}
	return out
}

func shardLabel(i int) metrics.Label { return metrics.L("shard", strconv.Itoa(i)) }
