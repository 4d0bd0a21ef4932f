// Package serve runs many query sessions concurrently over one shared PP
// corpus and blob stream, amortizing planning and scoring work across
// sessions (the reuse economy of §2: PPs are per-clause assets shared by
// every query that implies the clause).
//
// Two caches carry the amortization. The plan cache memoizes optimizer
// decisions under a canonical predicate key, so semantically equal queries —
// however they are written — skip the plan search; entries are invalidated
// when the PP corpus changes (watchdog trip, online retraining). The score
// cache memoizes per-(PP, blob) classifier scores in a sharded bounded LRU
// shared by all sessions, so overlapping predicates score each blob once.
// Both caches are transparent: served results, row order and virtual-cost
// accounting are bit-identical to cache-free execution, because PP scores
// are pure functions and cache hits still charge the modeled virtual cost
// (the cache saves real CPU, not modeled cluster work).
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"probpred/internal/adapt"
	"probpred/internal/blob"
	"probpred/internal/engine"
	"probpred/internal/metrics"
	"probpred/internal/obs"
	"probpred/internal/optimizer"
	"probpred/internal/pplog"
	"probpred/internal/query"
)

// CorpusBuilder assembles executable plans: it describes the application's
// UDF pipeline (e.g. the traffic benchmark's detector + per-column UDFs),
// the server supplies the PP filter to inject, and the blob corpus to scan
// is passed per call. That split is what sharded serving composes on — the
// coordinator binds one builder to N disjoint corpus slices, one per shard —
// and what streaming reuses to scan one segment per session.
type CorpusBuilder interface {
	// UDFCost returns u, the per-blob virtual cost of the plan downstream of
	// a PP for this predicate — the work a PP can short-circuit (§3). It is
	// corpus-independent.
	UDFCost(pred query.Pred) (float64, error)
	// BuildOver assembles the executable plan whose scan covers exactly
	// blobs, injecting filter right after the scan (nil filter = run
	// unmodified). Implementations must produce structurally identical plans
	// for any slice of the same corpus — sharded results are merged
	// positionally.
	BuildOver(blobs []blob.Blob, pred query.Pred, filter engine.BlobFilter) (engine.Plan, error)
}

// BoundCorpus is a CorpusBuilder fixed to one blob slice: the corpus a
// server's requests scan when they carry no blobs of their own.
type BoundCorpus struct {
	CorpusBuilder
	Blobs []blob.Blob
}

// BindCorpus fixes b to one blob slice, yielding the Config.Builder a
// server (or a shard replica) plans with.
func BindCorpus(b CorpusBuilder, blobs []blob.Blob) *BoundCorpus {
	return &BoundCorpus{CorpusBuilder: b, Blobs: blobs}
}

// Config configures a Server.
type Config struct {
	// Optimizer plans predicates over the shared corpus. Required. Cached
	// plans are served without touching it.
	Optimizer *optimizer.Optimizer
	// Builder assembles executable plans over its bound corpus (see
	// BindCorpus). Required unless Corpus is set.
	Builder *BoundCorpus
	// Corpus optionally provides per-request plan assembly for streaming
	// ingestion: a Request carrying an explicit Blobs slice is built with
	// Corpus.BuildOver over exactly that slice (a segment delta), sharing the
	// server's plan and score caches with every other request. When Builder
	// is nil, Corpus also serves Builder's role bound to an empty corpus, so
	// blob-less requests plan normally but scan nothing.
	Corpus CorpusBuilder
	// Accuracy is the default query-wide accuracy target for requests that
	// do not set their own. The accepted range is [0,1]: zero is explicitly
	// the "unset" value and selects 1 (no false negatives); anything
	// negative or above 1 is rejected by New.
	Accuracy float64
	// Domains maps columns to finite value domains for the optimizer's
	// wrangler rewrites. Optional.
	Domains map[string][]query.Value
	// MaxConcurrent bounds simultaneously executing sessions; excess
	// sessions queue (admission control). Zero selects GOMAXPROCS.
	MaxConcurrent int
	// Exec is the execution environment for every session's engine.Run.
	// Its Obs/Metrics default to the server's when unset.
	Exec engine.Config
	// DisableScoreCache keeps the score-cache plumbing (and its miss
	// counters) but stores nothing, so every lookup misses — the knob the
	// benchmark uses to measure uncached evaluation counts through identical
	// code paths.
	DisableScoreCache bool
	// Routing selects how a sharded Coordinator picks the replica that
	// serves each scatter leg (see NewSharded): RouteRoundRobin,
	// RouteLeastLoaded or RoutePlanAffinity. Empty selects round-robin.
	// Single servers ignore it.
	Routing RoutingPolicy
	// Adapt enables mid-query re-optimization: sessions whose plans inject a
	// compiled PP expression execute under the controller, which watches
	// observed selectivities against the plan's estimates, hot-swaps to a
	// re-ordered (outcome-identical) filter when they diverge, and demotes/
	// promotes this server's plan-cache entry so later sessions start on the
	// corrected order. Nil disables adaptation. Controllers may be shared
	// across servers; breaker state is per plan key.
	Adapt *adapt.Controller
	// Metrics receives serving telemetry: session and plan-cache counters,
	// admission-queue and active-session gauges, score-cache totals. Nil
	// disables.
	Metrics *metrics.Registry
	// Obs receives one KindSession span per request plus the optimizer's
	// KindOptimize spans for cache-miss searches. Nil disables.
	Obs *obs.Tracer
	// QueryLog receives one structured record per completed session (and,
	// under a sharded Coordinator, one per shard leg), keyed by the
	// session's TraceID. The writer is bounded and non-blocking: the serve
	// path never stalls on it. Nil disables.
	QueryLog *pplog.Writer
}

func (c *Config) fill() error {
	if c.Optimizer == nil {
		return fmt.Errorf("serve: Config.Optimizer is required")
	}
	if c.Builder == nil {
		if c.Corpus == nil {
			return fmt.Errorf("serve: Config.Builder is required")
		}
		c.Builder = BindCorpus(c.Corpus, nil)
	}
	if c.Accuracy < 0 || c.Accuracy > 1 {
		return fmt.Errorf("serve: accuracy target %v outside [0,1] (zero selects 1: no false negatives)", c.Accuracy)
	}
	if c.Accuracy == 0 {
		c.Accuracy = 1
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.Routing == "" {
		c.Routing = RouteRoundRobin
	}
	if !c.Routing.valid() {
		return fmt.Errorf("serve: unknown routing policy %q (want %q, %q or %q)",
			c.Routing, RouteRoundRobin, RouteLeastLoaded, RoutePlanAffinity)
	}
	if c.Exec.Obs == nil {
		c.Exec.Obs = c.Obs
	}
	if c.Exec.Metrics == nil {
		c.Exec.Metrics = c.Metrics
	}
	return nil
}

// Request is one query session's input.
type Request struct {
	// ID labels the session in spans and responses. Optional.
	ID string
	// Pred is the query predicate.
	Pred query.Pred
	// Accuracy overrides the server's default accuracy target when non-zero.
	// Values outside [0,1] are rejected (zero means "use the server
	// default").
	Accuracy float64
	// Blobs, when non-nil, overrides the session's scan: the plan is built
	// with Config.Corpus.BuildOver over exactly this slice instead of the
	// bound Builder corpus. Streaming ingestion uses it to run a standing
	// query over one appended segment while sharing the plan and score
	// caches across segments. Requires Config.Corpus.
	Blobs []blob.Blob
	// Segment, when non-nil, tags the session's query-log record with the
	// stream segment the request covers. Informational only.
	Segment *pplog.SegInfo
	// Trace is the session trace ID to serve under. Empty (the normal case)
	// makes the server mint one; a sharded Coordinator sets it so every leg
	// of one scatter-gather session shares the coordinator's TraceID.
	Trace string
	// leg identifies the scatter-gather leg this request is (set by the
	// Coordinator; nil on direct requests).
	leg *legInfo
}

// legInfo tags a shard leg: which shard and replica serve it, under which
// routing policy, and the coordinator span to parent the leg's session span
// under.
type legInfo struct {
	shard, replica int
	policy         string
	parent         obs.TraceContext
}

// Response is one completed session.
type Response struct {
	// ID echoes the request label.
	ID string
	// TraceID is the session's trace ID: the key every span, event,
	// histogram exemplar and query-log record of this session shares.
	TraceID string
	// Result is the execution outcome (rows + cost accounting).
	Result *engine.Result
	// Decision is the optimizer decision the session executed under.
	Decision *optimizer.Decision
	// PlanKey is the canonical plan-cache key the session resolved to.
	PlanKey string
	// PlanCached reports whether the decision came from the plan cache
	// (true) or a fresh plan search (false).
	PlanCached bool
	// Adapt reports what mid-query re-optimization did during the session.
	// Nil when the server has no adapt controller configured.
	Adapt *adapt.Report
	// QueueWait is the enqueue→admit wall time: how long the session waited
	// for an execution slot behind the admission semaphore.
	QueueWait time.Duration
	// Service is the admit→done wall time: planning (or plan-cache lookup)
	// plus execution.
	Service time.Duration
}

// Stats is a point-in-time snapshot of the server's cache and session
// counters.
type Stats struct {
	// Sessions is how many requests completed (including failures).
	Sessions uint64
	// PlanHits / PlanMisses count plan-cache outcomes per session; hits
	// skipped the optimizer search entirely.
	PlanHits, PlanMisses uint64
	// PlanInvalidations counts cached plans dropped as stale (a corpus
	// change touched a clause the plan consulted) or flushed manually.
	PlanInvalidations uint64
	// PlanRevalidations counts cached plans from older corpus versions kept
	// because the mutation left every clause they consulted untouched
	// (partial invalidation: only plans whose PP set actually changed
	// re-search).
	PlanRevalidations uint64
	// PlanEntries is the current plan-cache population.
	PlanEntries int
	// ScoreHits / ScoreMisses count score-cache lookups across all sessions.
	// With the score cache disabled every lookup is a miss, so ScoreMisses
	// equals the number of PP score evaluations performed.
	ScoreHits, ScoreMisses uint64
	// ScoreEntries is the current score-cache population.
	ScoreEntries int
	// PlanDemotions / PlanPromotions count adapt-driven plan-cache
	// maintenance: stale entries dropped mid-query and re-ordered filters
	// installed in their place.
	PlanDemotions, PlanPromotions uint64
	// ScatterSessions / ScatterFailures count merged scatter-gather sessions
	// and sessions failed by at least one shard. Zero on standalone servers;
	// on a Coordinator, Sessions counts per-shard legs (≈ ScatterSessions ×
	// Shards).
	ScatterSessions, ScatterFailures uint64
}

// Server admits concurrent query sessions over a shared optimizer, plan
// cache and score cache. Safe for concurrent Do calls.
type Server struct {
	cfg    Config
	plans  *planCache
	scores *scoreCache
	// sem is the admission semaphore bounding concurrently executing
	// sessions.
	sem chan struct{}

	// queued / active mirror the admission gauges as plain atomics, always
	// maintained (metrics registry or not): they are the live load signal
	// the least-loaded router reads.
	queued, active atomic.Int64

	sessions atomic.Uint64

	m serveMetrics
}

// serveMetrics holds a server's metric handles, resolved once at New so each
// name and help string is written once and a session pays no registry
// lookups. With a nil registry every handle is nil, and nil handles no-op.
type serveMetrics struct {
	queueDepth, active     *metrics.Gauge
	admissionWait, service *metrics.Histogram

	sessions, sessionErrors              *metrics.Counter
	planCacheHits, planCacheMisses       *metrics.Counter
	planEntries, planInvalidations       *metrics.Gauge
	planRevalidations                    *metrics.Gauge
	planDemotions, planPromotions        *metrics.Gauge
	scoreEntries, scoreHits, scoreMisses *metrics.Gauge
}

func newServeMetrics(reg *metrics.Registry) serveMetrics {
	return serveMetrics{
		queueDepth:    reg.Gauge("serve_admission_queue_depth", "Sessions waiting for an execution slot."),
		active:        reg.Gauge("serve_active_sessions", "Sessions currently executing."),
		admissionWait: reg.Histogram("serve_admission_wait_ns", "Wall nanoseconds a session waited for an execution slot (enqueue to admit)."),
		service:       reg.Histogram("serve_service_ns", "Wall nanoseconds a session spent executing (admit to done)."),

		sessions:          reg.Counter("serve_sessions_total", "Query sessions served."),
		sessionErrors:     reg.Counter("serve_session_errors_total", "Query sessions that failed."),
		planCacheHits:     reg.Counter("serve_plan_cache_hits_total", "Sessions served from the plan cache."),
		planCacheMisses:   reg.Counter("serve_plan_cache_misses_total", "Sessions that ran a fresh plan search."),
		planEntries:       reg.Gauge("serve_plan_cache_entries", "Plans currently cached."),
		planInvalidations: reg.Gauge("serve_plan_cache_invalidations", "Cached plans dropped as stale or flushed."),
		planRevalidations: reg.Gauge("serve_plan_cache_revalidations", "Stale-version cached plans kept because no consulted clause changed."),
		planDemotions:     reg.Gauge("serve_plan_cache_demotions", "Cached plans demoted by mid-query adaptation."),
		planPromotions:    reg.Gauge("serve_plan_cache_promotions", "Re-ordered plans promoted into the cache by mid-query adaptation."),
		scoreEntries:      reg.Gauge("serve_score_cache_entries", "PP scores currently cached."),
		scoreHits:         reg.Gauge("serve_score_cache_hits", "Cumulative score-cache hits across sessions."),
		scoreMisses:       reg.Gauge("serve_score_cache_misses", "Cumulative score-cache misses across sessions."),
	}
}

// New validates the config and returns a ready server.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return &Server{
		cfg:    cfg,
		plans:  newPlanCache(planCacheSize, cfg.Optimizer.Corpus()),
		scores: newScoreCache(scoreCacheSize, scoreCacheShards, cfg.DisableScoreCache),
		sem:    make(chan struct{}, cfg.MaxConcurrent),
		m:      newServeMetrics(cfg.Metrics),
	}, nil
}

// identify resolves a session's trace ID — the caller's, else freshly minted
// — and its span name: the request ID, else the predicate's text. The trace
// ID exists independently of the tracer: exemplars, the query log and
// Response.TraceID key on it even when span collection is off.
func identify(req Request) (trace, name string) {
	trace, name = req.Trace, req.ID
	if trace == "" {
		trace = obs.NewTraceID()
	}
	if name == "" && req.Pred != nil {
		name = req.Pred.String()
	}
	return trace, name
}

// validate is the session prologue shared by Server and Coordinator: it
// rejects a request with no predicate or an out-of-range accuracy and
// resolves the accuracy target (zero selects defaultAcc). The range check
// runs before the value reaches the optimizer or the plan-cache key: a bad
// accuracy would otherwise be baked into a cached plan and served to every
// later request with the same spelling.
func validate(req Request, defaultAcc float64) (accuracy float64, err error) {
	if req.Pred == nil {
		return 0, fmt.Errorf("serve: request %q has no predicate", req.ID)
	}
	if req.Accuracy < 0 || req.Accuracy > 1 {
		return 0, fmt.Errorf("serve: request %q accuracy %v outside [0,1] (zero selects the server default)", req.ID, req.Accuracy)
	}
	if req.Accuracy == 0 {
		return defaultAcc, nil
	}
	return req.Accuracy, nil
}

// session is one request's ledger, filled by Server.Do or Coordinator.Do and
// closed by finish: everything its span, histograms and query-log record
// are derived from.
type session struct {
	req   Request
	trace string
	span  obs.Span
	// start is when service began: the admit time on a Server, the scatter
	// on a Coordinator. wait is the admission wait before it (a merged
	// scatter's is its slowest leg's).
	start time.Time
	wait  time.Duration
	// key is the plan key of a session that failed after resolving it;
	// successful sessions carry it on the response.
	key string
	// policy and legs are set on scatter-gather sessions only.
	policy string
	legs   []leg
	resp   *Response
	err    error
}

// finish is the one session epilogue: it ends the span, observes the service
// histogram (nil on a Coordinator, whose legs observe their own), stamps the
// response with the session's trace and timings, and writes the session's
// single query-log record — the error, or the plan resolution, admission
// wait, estimated and observed PP reduction, output rows and virtual cost.
// The log write is non-blocking: a full buffer drops the record and bumps
// the writer's drop counter rather than stalling the serve path.
func (ss *session) finish(tr *obs.Tracer, qlog *pplog.Writer, service *metrics.Histogram, defaultAcc float64) (*Response, error) {
	resp, err := ss.resp, ss.err
	if err != nil {
		ss.span.SetAttr("error", err.Error())
	} else {
		if resp.Adapt != nil && len(resp.Adapt.Swaps) > 0 {
			ss.span.SetAttr("adapt_swaps", strconv.Itoa(len(resp.Adapt.Swaps)))
		}
		ss.span.RowsOut = len(resp.Result.Rows)
		ss.span.CostVMS = resp.Result.ClusterTime
	}
	tr.End(&ss.span)
	took := time.Since(ss.start)
	service.ObserveExemplar(float64(took), ss.trace)
	if resp != nil {
		resp.TraceID, resp.QueueWait, resp.Service = ss.trace, ss.wait, took
	}
	if qlog == nil {
		return resp, err
	}
	rec := pplog.Record{
		TimeUnixNS:  time.Now().UnixNano(),
		TraceID:     ss.trace,
		Session:     ss.req.ID,
		PlanKey:     ss.key,
		Accuracy:    ss.req.Accuracy,
		QueueWaitNS: ss.wait.Nanoseconds(),
		ServiceNS:   took.Nanoseconds(),
		Seg:         ss.req.Segment,
		Policy:      ss.policy,
	}
	if rec.Accuracy == 0 {
		rec.Accuracy = defaultAcc
	}
	if l := ss.req.leg; l != nil {
		rec.Leg = &pplog.LegInfo{Shard: l.shard, Replica: l.replica, Policy: l.policy}
	}
	for i := range ss.legs {
		l := pplog.Leg{Shard: ss.legs[i].shard, Replica: ss.legs[i].replica}
		if r := ss.legs[i].resp; r != nil {
			l.QueueWaitNS = r.QueueWait.Nanoseconds()
			l.ServiceNS = r.Service.Nanoseconds()
			l.Rows = len(r.Result.Rows)
		}
		if ss.legs[i].err != nil {
			l.Error = ss.legs[i].err.Error()
		}
		rec.Legs = append(rec.Legs, l)
	}
	if err != nil {
		rec.Error = err.Error()
	} else {
		rec.PlanKey = resp.PlanKey
		rec.PlanCached = resp.PlanCached
		if resp.Decision.Inject {
			rec.EstReduction = resp.Decision.Reduction
		}
		if resp.Adapt != nil {
			rec.AdaptSwaps = len(resp.Adapt.Swaps)
		}
		rec.Rows = len(resp.Result.Rows)
		rec.ClusterVMS = resp.Result.ClusterTime
		for _, op := range resp.Result.PerOp {
			if op.PPFilter {
				rec.PPTested += op.RowsIn
				rec.PPPassed += op.RowsOut
			}
		}
		if rec.PPTested > 0 {
			rec.ObsReduction = 1 - float64(rec.PPPassed)/float64(rec.PPTested)
		}
	}
	qlog.Log(rec)
	return resp, err
}

// Load reports the server's live admission state: sessions waiting for a
// slot and sessions currently executing. It is the signal load-aware routers
// balance on.
func (s *Server) Load() (queued, active int64) {
	return s.queued.Load(), s.active.Load()
}

// Do runs one query session: admission, plan-cache resolution (searching on
// miss), execution. Blocks while the server is at MaxConcurrent. The
// enqueue→admit (semaphore wait) and admit→done (execution) wall times land
// in the serve_admission_wait_ns / serve_service_ns histograms and on the
// Response, so callers and /metrics see the same queue-wait vs service-time
// split.
func (s *Server) Do(req Request) (*Response, error) {
	// The trace ID is minted before admission so the queue-wait exemplar can
	// carry it.
	ss := session{req: req}
	var name string
	ss.trace, name = identify(req)
	enqueued := time.Now()
	s.queued.Add(1)
	s.m.queueDepth.Add(1)
	s.sem <- struct{}{}
	ss.start = time.Now()
	ss.wait = ss.start.Sub(enqueued)
	s.queued.Add(-1)
	s.active.Add(1)
	s.m.queueDepth.Add(-1)
	s.m.active.Add(1)
	s.m.admissionWait.ObserveExemplar(float64(ss.wait), ss.trace)
	defer func() {
		<-s.sem
		s.active.Add(-1)
		s.m.active.Add(-1)
	}()
	s.sessions.Add(1)

	// A shard leg's session span parents under the coordinator's span;
	// direct sessions root a fresh trace.
	parent := obs.TraceContext{TraceID: ss.trace}
	if req.leg != nil {
		parent = req.leg.parent
	}
	ss.span = s.cfg.Obs.BeginCtx(parent, obs.KindSession, name)
	if req.leg != nil {
		ss.span.SetAttr("shard", strconv.Itoa(req.leg.shard))
		ss.span.SetAttr("replica", strconv.Itoa(req.leg.replica))
		ss.span.SetAttr("policy", req.leg.policy)
	}
	ss.resp, ss.err = s.serve(req, &ss.span, obs.TraceContext{TraceID: ss.trace, SpanID: ss.span.ID})
	resp, err := ss.finish(s.cfg.Obs, s.cfg.QueryLog, s.m.service, s.cfg.Accuracy)
	s.emitSessionMetrics(resp, err)
	return resp, err
}

func (s *Server) serve(req Request, span *obs.Span, ctx obs.TraceContext) (*Response, error) {
	accuracy, err := validate(req, s.cfg.Accuracy)
	if err != nil {
		return nil, err
	}
	key := optimizer.PlanKey(req.Pred, accuracy)
	// Of N sessions racing into one uncached key one searches; the others
	// wait for its entry and count as plan hits.
	entry, cached, err := s.plans.resolve(key, func() (*planEntry, error) {
		return s.searchPlan(req.Pred, accuracy, key, ctx)
	})
	if err != nil {
		return nil, err
	}
	span.SetAttr("plan_key", key)
	span.SetAttr("plan_cached", strconv.FormatBool(cached))

	var filter engine.BlobFilter
	if entry.dec.Inject {
		filter = entry.filter
	}
	var plan engine.Plan
	if req.Blobs != nil {
		if s.cfg.Corpus == nil {
			return nil, fmt.Errorf("serve: request %q carries explicit blobs but Config.Corpus is not set", req.ID)
		}
		plan, err = s.cfg.Corpus.BuildOver(req.Blobs, req.Pred, filter)
	} else {
		plan, err = s.cfg.Builder.BuildOver(s.cfg.Builder.Blobs, req.Pred, filter)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: build plan for %q: %w", req.Pred.String(), err)
	}
	// Every operator and chunk span of this run inherits the session's
	// trace through the engine config.
	ecfg := s.cfg.Exec
	ecfg.Trace = ctx
	var res *engine.Result
	var arep *adapt.Report
	if s.cfg.Adapt != nil && filter != nil {
		res, arep, err = s.cfg.Adapt.Run(plan, ecfg, adapt.RunSpec{
			Key: key,
			// The session's trace context keys the re-optimization event to
			// the session that triggered it.
			Reopt: func(f *optimizer.Compiled, minRows uint64) (*optimizer.Reoptimized, error) {
				return s.cfg.Optimizer.ReoptimizeCtx(f, minRows, s.cfg.Obs, ctx)
			},
			Cache: sessionCache{s: s, entry: entry},
		})
	} else {
		res, err = engine.Run(plan, ecfg)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: run %q: %w", req.Pred.String(), err)
	}
	return &Response{
		ID:         req.ID,
		Result:     res,
		Decision:   entry.dec,
		PlanKey:    key,
		PlanCached: cached,
		Adapt:      arep,
	}, nil
}

// sessionCache adapts the server's plan cache to adapt.PlanCache for one
// session. The session's own entry is the donor a promotion inherits its
// decision and corpus version from — the key may have been demoted (or
// evicted) by the time the promotion lands, and the cache must still be able
// to build a complete fresh entry.
type sessionCache struct {
	s     *Server
	entry *planEntry
}

// DemotePlan implements adapt.PlanCache.
func (c sessionCache) DemotePlan(key string) { c.s.plans.demote(key) }

// PromotePlan implements adapt.PlanCache. The promoted filter is the
// re-ordered compiled expression; it shares the entry filter's leaves, so the
// score-cache attachment (and cross-session score reuse) carries over.
func (c sessionCache) PromotePlan(key string, re *optimizer.Reoptimized) {
	c.s.plans.promote(c.entry, re.Filter)
}

// searchPlan runs one plan search and wraps its decision as a cache entry,
// stamped with the version of the corpus snapshot the search consulted.
func (s *Server) searchPlan(pred query.Pred, accuracy float64, key string, ctx obs.TraceContext) (*planEntry, error) {
	u, err := s.cfg.Builder.UDFCost(pred)
	if err != nil {
		return nil, fmt.Errorf("serve: UDF cost for %q: %w", pred.String(), err)
	}
	dec, err := s.cfg.Optimizer.Optimize(pred, optimizer.Options{
		Accuracy: accuracy,
		UDFCost:  u,
		Domains:  s.cfg.Domains,
		Obs:      s.cfg.Obs,
		Trace:    ctx,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: optimize %q: %w", pred.String(), err)
	}
	e := &planEntry{key: key, version: dec.CorpusVersion, deps: dec.Consulted(), dec: dec}
	if dec.Inject {
		// One score-cache-attached filter per entry, shared by every session
		// that hits it — sharing is what makes cross-session score reuse
		// work; the engine keeps per-run accounting separate.
		e.filter = dec.Filter.WithScoreCache(s.scores)
	}
	return e, nil
}

// Invalidate drops every cached plan, forcing fresh searches. Corpus changes
// invalidate automatically (entries are version-checked); this is the manual
// override for out-of-band invalidation.
func (s *Server) Invalidate() { s.plans.flush() }

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	scoreEntries, scoreHits, scoreMisses := s.scores.stats()
	return Stats{
		Sessions:          s.sessions.Load(),
		PlanHits:          s.plans.hits.Load(),
		PlanMisses:        s.plans.misses.Load(),
		PlanInvalidations: s.plans.invalidations.Load(),
		PlanRevalidations: s.plans.revalidations.Load(),
		PlanEntries:       s.plans.len(),
		ScoreHits:         scoreHits,
		ScoreMisses:       scoreMisses,
		ScoreEntries:      scoreEntries,
		PlanDemotions:     s.plans.demotions.Load(),
		PlanPromotions:    s.plans.promotions.Load(),
	}
}

// emitSessionMetrics records one completed session. Cache totals are
// republished as gauges so /metrics always reflects the latest snapshot.
func (s *Server) emitSessionMetrics(resp *Response, err error) {
	if s.cfg.Metrics == nil {
		return // skip the cache snapshots, which take the caches' locks
	}
	m := &s.m
	m.sessions.Inc()
	if err != nil {
		m.sessionErrors.Inc()
		return
	}
	if resp.PlanCached {
		m.planCacheHits.Inc()
	} else {
		m.planCacheMisses.Inc()
	}
	m.planEntries.Set(float64(s.plans.len()))
	m.planInvalidations.Set(float64(s.plans.invalidations.Load()))
	m.planRevalidations.Set(float64(s.plans.revalidations.Load()))
	m.planDemotions.Set(float64(s.plans.demotions.Load()))
	m.planPromotions.Set(float64(s.plans.promotions.Load()))
	scoreEntries, scoreHits, scoreMisses := s.scores.stats()
	m.scoreEntries.Set(float64(scoreEntries))
	m.scoreHits.Set(float64(scoreHits))
	m.scoreMisses.Set(float64(scoreMisses))
}

// WorkloadQuery is one query of a replayed workload.
type WorkloadQuery struct {
	ID   string
	Pred string
	// Accuracy overrides the server default when non-zero.
	Accuracy float64
}

// Replay parses and serves a workload at the given concurrency, returning
// responses in workload order regardless of completion order. Replay runs to
// completion: a failed query (parse error or Do error) never aborts the
// remaining queries, its response slot stays nil, and every failure is
// aggregated — per-query-labeled — into the returned error (errors.Join).
func (s *Server) Replay(workload []WorkloadQuery, concurrency int) ([]*Response, error) {
	return replay(s, workload, concurrency)
}

// doer is the serving surface Replay drives: a Server or a Coordinator.
type doer interface {
	Do(Request) (*Response, error)
}

func replay(d doer, workload []WorkloadQuery, concurrency int) ([]*Response, error) {
	if concurrency < 1 {
		concurrency = 1
	}
	out := make([]*Response, len(workload))
	errs := make([]error, len(workload))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(workload) {
					return
				}
				q := workload[i]
				pred, err := query.Parse(q.Pred)
				if err != nil {
					errs[i] = fmt.Errorf("serve: parse %s (%q): %w", q.ID, q.Pred, err)
					continue
				}
				out[i], errs[i] = d.Do(Request{ID: q.ID, Pred: pred, Accuracy: q.Accuracy})
			}
		}()
	}
	wg.Wait()
	var failed []error
	for i, err := range errs {
		if err != nil {
			failed = append(failed, fmt.Errorf("query %s: %w", workload[i].ID, err))
		}
	}
	return out, errors.Join(failed...)
}
