// Package serve runs many query sessions concurrently over one shared PP
// corpus and blob stream, amortizing planning and scoring work across
// sessions (the reuse economy of §2: PPs are per-clause assets shared by
// every query that implies the clause).
//
// Two caches carry the amortization. The plan cache memoizes optimizer
// decisions under a canonical predicate key, so semantically equal queries —
// however they are written — skip the plan search; entries are invalidated
// when the PP corpus changes (watchdog trip, online retraining). The score
// cache memoizes per-(PP, blob) classifier scores in bounded per-PP columns
// that sessions read without a lock, so overlapping predicates score each
// blob once.
// Both caches are transparent: served results, row order and virtual-cost
// accounting are bit-identical to cache-free execution, because PP scores
// are pure functions and cache hits still charge the modeled virtual cost
// (the cache saves real CPU, not modeled cluster work).
//
// A Server is shards × replicas of those caches (shard.go): New builds the
// 1×1 case, NewSharded partitions a corpus across shards.
package serve

import (
	"errors"
	"fmt"
	"runtime"
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
	"probpred/internal/query"
)

// CorpusBuilder assembles executable plans: it describes the application's
// UDF pipeline (e.g. the traffic benchmark's detector + per-column UDFs),
// the server supplies the PP filter to inject, and the blob corpus to scan
// is passed per call. That split is what sharded serving composes on — one
// builder serves N disjoint corpus slices, one per shard — and what
// streaming reuses to scan one segment per session.
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
// server plans with.
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
	// MaxConcurrent bounds each replica's simultaneously executing legs;
	// excess legs queue (admission control). Zero selects GOMAXPROCS.
	MaxConcurrent int
	// Exec is the execution environment for every session's engine.Run.
	Exec engine.Config
	// DisableScoreCache keeps the score-cache plumbing (and its miss
	// counters) but stores nothing, so every lookup misses — the knob the
	// benchmark uses to measure uncached evaluation counts through identical
	// code paths.
	DisableScoreCache bool
	// Metrics receives serving telemetry: session and plan-cache counters,
	// and gauges read at scrape time from the replicas' own counters
	// (admission queue, active legs, plan- and score-cache totals). Nil
	// disables.
	Metrics *metrics.Registry
	// Obs receives one KindSession span per request (with one child per leg
	// on a server of more than one shard × replica) and, derived from the
	// ledgers the optimizer and engine return, the KindOptimize span of each
	// cache-miss search and each leg's run and operator spans. Nil disables.
	Obs *obs.Tracer
	// QueryLog receives one structured record per completed session, keyed
	// by the session's TraceID. The writer is bounded and non-blocking: the
	// serve path never stalls on it. Nil disables.
	QueryLog *pplog.Writer
}

func (c *Config) fill() error {
	if c.Optimizer == nil {
		return fmt.Errorf("serve: Config.Optimizer is required")
	}
	if c.Optimizer.Corpus() == nil {
		return fmt.Errorf("serve: Config.Optimizer has no corpus")
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
	// with Config.Corpus.BuildOver over exactly this slice (split across the
	// shards as the corpus is) instead of the bound corpus. Streaming
	// ingestion uses it to run a standing query over one appended segment
	// while sharing the plan and score caches across segments. Requires
	// Config.Corpus.
	Blobs []blob.Blob
	// Segment, when non-nil, tags the session's query-log record with the
	// stream segment the request covers. Informational only.
	Segment *pplog.SegInfo
	// Trace is the session trace ID to serve under. Empty (the normal case)
	// makes the server mint one.
	Trace string
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
	// (true) or a fresh plan search (false); on a sharded session, whether
	// every leg's did.
	PlanCached bool
	// QueueWait is the enqueue→admit wall time: how long the session waited
	// for an execution slot behind the admission semaphore (on a sharded
	// session, its slowest leg's wait).
	QueueWait time.Duration
	// Service is the rest of the session's wall time: planning (or
	// plan-cache lookup), execution and, when sharded, the merge.
	// QueueWait + Service is the wall time of Do.
	Service time.Duration
}

// Stats is a point-in-time snapshot of the server's cache and session
// counters, summed over every replica.
type Stats struct {
	// Sessions is how many requests completed (including failures). In
	// ReplicaStats it counts the legs that replica served.
	Sessions uint64
	// PlanHits / PlanMisses count plan-cache outcomes per leg; hits skipped
	// the optimizer search entirely.
	PlanHits, PlanMisses uint64
	// PlanInvalidations counts cached plans dropped as stale (a corpus
	// change touched a clause the plan consulted).
	PlanInvalidations uint64
	// PlanRevalidations counts cached plans from older corpus versions kept
	// because the mutation left every clause they consulted untouched
	// (partial invalidation: only plans whose PP set actually changed
	// re-search).
	PlanRevalidations uint64
	// PlanEntries is the current plan-cache population.
	PlanEntries int
	// ScoreHits / ScoreMisses count the score lookups of every completed
	// leg. With the score cache disabled every lookup is a miss, so
	// ScoreMisses equals the number of PP score evaluations performed.
	ScoreHits, ScoreMisses uint64
	// ScoreEntries is the current score-cache population.
	ScoreEntries int
}

// Server admits concurrent query sessions over shards × replicas of private
// plan caches, score caches and admission semaphores, all planning on one
// shared optimizer. Safe for concurrent Do calls.
type Server struct {
	cfg    Config
	shards []*shard
	// scatters is set on a server of more than one shard × replica, whose
	// sessions run one routed leg per shard. A 1×1 server runs each session
	// as its own single leg: no routing, no leg span, no Legs in its
	// query-log record.
	scatters bool

	sessions atomic.Uint64

	m serveMetrics
}

// Coordinator is the sharded server's former name, kept only because the
// benchmark's workloads name the type. Delete it when the benchmark's
// narrow seam (ROADMAP item 2) lands.
type Coordinator = Server

// serveMetrics holds a server's metric handles, resolved once at build so
// each name and help string is written once and a session pays no registry
// lookups. With a nil registry every handle is nil, and nil handles no-op.
type serveMetrics struct {
	admissionWait, service *metrics.Histogram

	sessions, sessionErrors        *metrics.Counter
	planCacheHits, planCacheMisses *metrics.Counter
}

// registerMetrics resolves the server's metric handles and registers its
// gauges over the counters its replicas keep, so a scrape reads them live
// and a session sets none.
func (s *Server) registerMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.GaugeFunc("serve_admission_queue_depth", "Legs waiting for an execution slot.",
		sumReplicas(s.shards, queued))
	reg.GaugeFunc("serve_active_sessions", "Legs currently executing.", sumReplicas(s.shards, active))
	s.m = serveMetrics{
		admissionWait: reg.Histogram("serve_admission_wait_ns", "Wall nanoseconds a session waited for an execution slot (enqueue to admit; its slowest leg's when sharded)."),
		service:       reg.Histogram("serve_service_ns", "Wall nanoseconds of a session after its admission wait."),

		sessions:        reg.Counter("serve_sessions_total", "Query sessions served."),
		sessionErrors:   reg.Counter("serve_session_errors_total", "Query sessions that failed."),
		planCacheHits:   reg.Counter("serve_plan_cache_hits_total", "Sessions served from the plan cache."),
		planCacheMisses: reg.Counter("serve_plan_cache_misses_total", "Sessions that ran a fresh plan search."),
	}
	reg.GaugeFunc("serve_plan_cache_entries", "Plans currently cached.",
		sumReplicas(s.shards, func(r *replica) float64 { return float64(r.plans.len()) }))
	reg.GaugeFunc("serve_plan_cache_invalidations", "Cached plans dropped as stale.",
		sumReplicas(s.shards, func(r *replica) float64 { return float64(r.plans.invalidations.Load()) }))
	reg.GaugeFunc("serve_plan_cache_revalidations", "Stale-version cached plans kept because no consulted clause changed.",
		sumReplicas(s.shards, func(r *replica) float64 { return float64(r.plans.revalidations.Load()) }))
	reg.GaugeFunc("serve_score_cache_entries", "PP scores currently cached.",
		sumReplicas(s.shards, func(r *replica) float64 { return float64(r.scores.Len()) }))
	reg.GaugeFunc("serve_score_cache_hits", "Cumulative score-cache hits across sessions.",
		sumReplicas(s.shards, func(r *replica) float64 { return float64(r.scoreHits.Load()) }))
	reg.GaugeFunc("serve_score_cache_misses", "Cumulative score-cache misses across sessions.",
		sumReplicas(s.shards, func(r *replica) float64 { return float64(r.scoreMisses.Load()) }))
	if s.scatters {
		for i := range s.shards {
			reg.GaugeFunc("serve_shard_queue_depth", "Legs waiting for a slot on this shard (all replicas).",
				sumReplicas(s.shards[i:i+1], queued), shardLabel(i))
			reg.GaugeFunc("serve_shard_active", "Legs executing on this shard (all replicas).",
				sumReplicas(s.shards[i:i+1], active), shardLabel(i))
		}
	}
}

// sumReplicas is a gauge reading: f totalled over the replicas of shards.
func sumReplicas(shards []*shard, f func(*replica) float64) func() float64 {
	return func() float64 {
		v := 0.0
		for _, sh := range shards {
			for _, r := range sh.replicas {
				v += f(r)
			}
		}
		return v
	}
}

func queued(r *replica) float64 { return float64(r.queued.Load()) }
func active(r *replica) float64 { return float64(r.active.Load()) }

// New validates the config and returns a 1×1 server over Config.Builder's
// corpus.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	return build(cfg, [][]blob.Blob{cfg.Builder.Blobs}, 1), nil
}

// build makes one shard per corpus slice and replicas replicas per shard,
// each with its own plan cache, score cache and admission semaphore. cfg
// is filled.
func build(cfg Config, slices [][]blob.Blob, replicas int) *Server {
	s := &Server{cfg: cfg}
	for _, slice := range slices {
		sh := &shard{blobs: slice}
		for r := 0; r < replicas; r++ {
			sh.replicas = append(sh.replicas, &replica{
				plans:  newPlanCache(planCacheSize, cfg.Optimizer.Corpus()),
				scores: optimizer.NewScoreColumns(scoreCachePages, cfg.DisableScoreCache),
				sem:    make(chan struct{}, cfg.MaxConcurrent),
			})
		}
		s.shards = append(s.shards, sh)
	}
	s.scatters = len(slices)*replicas > 1
	s.registerMetrics(cfg.Metrics)
	return s
}

// validate rejects a request with no predicate, an out-of-range accuracy or
// explicit blobs the server cannot build over, and resolves the accuracy
// target (zero selects the server default). The range check runs before
// the value reaches the optimizer or the plan-cache key: a bad accuracy
// would otherwise be baked into a cached plan and served to every later
// request with the same spelling.
func (s *Server) validate(req Request) (accuracy float64, err error) {
	switch {
	case req.Pred == nil:
		return 0, fmt.Errorf("serve: request %q has no predicate", req.ID)
	case req.Accuracy < 0 || req.Accuracy > 1:
		return 0, fmt.Errorf("serve: request %q accuracy %v outside [0,1] (zero selects the server default)", req.ID, req.Accuracy)
	case req.Blobs != nil && s.cfg.Corpus == nil:
		return 0, fmt.Errorf("serve: request %q carries explicit blobs but Config.Corpus is not set", req.ID)
	case req.Accuracy == 0:
		return s.cfg.Accuracy, nil
	}
	return req.Accuracy, nil
}

// session is one request's ledger, filled by Do and closed by finish:
// everything its span, histograms and query-log record are derived from.
type session struct {
	// req is the request, its Trace resolved.
	req  Request
	span obs.Span
	// start is when Do began; wait is the admission wait (a sharded
	// session's slowest leg's). Service is the wall time after wait.
	start time.Time
	wait  time.Duration
	// key is the plan key, set once the request validated.
	key string
	// legs are set on sessions of a server that scatters.
	legs []leg
	resp *Response
	err  error
}

// Do runs one query session. The session-level work happens here, once:
// trace ID, validation, plan key, the session span and the epilogue. The
// work on a replica — admission, plan-cache resolution (searching on miss),
// plan assembly, execution — is a leg (runLeg): a 1×1 server runs the
// session as its single leg, any other runs one leg per shard on a routed
// replica and merges them (scatter). A leg blocks while its replica is at
// MaxConcurrent. The session's admission wait and the rest of its wall time
// land in the serve_admission_wait_ns / serve_service_ns histograms and on
// the Response, so callers and /metrics see the same split.
func (s *Server) Do(req Request) (*Response, error) {
	// The trace ID — the caller's, else freshly minted — exists
	// independently of the tracer: exemplars, the query log and
	// Response.TraceID key on it even when span collection is off.
	ss := session{req: req, start: time.Now()}
	if ss.req.Trace == "" {
		ss.req.Trace = obs.NewTraceID()
	}
	name := req.ID
	if name == "" && req.Pred != nil {
		name = req.Pred.String()
	}
	ss.span = s.cfg.Obs.BeginCtx(obs.TraceContext{TraceID: ss.req.Trace}, obs.KindSession, name)
	accuracy, err := s.validate(req)
	switch {
	case err != nil:
		ss.err = err
	case !s.scatters:
		ss.key = optimizer.PlanKey(req.Pred, accuracy)
		sh := s.shards[0]
		l := leg{blobs: sh.blobs}
		if req.Blobs != nil {
			l.blobs = req.Blobs
		}
		s.runLeg(&l, ss.req, ss.key, accuracy, &ss.span)
		ss.resp, ss.wait, ss.err = l.resp, l.wait, l.err
	default:
		ss.key = optimizer.PlanKey(req.Pred, accuracy)
		ss.resp, ss.err = s.scatter(&ss, accuracy, name)
	}
	return s.finish(&ss)
}

// leg is one shard's portion of a session, served by one replica.
type leg struct {
	shard, replica int
	// blobs is what the leg scans: its shard's corpus slice, or its share
	// of the request's explicit blobs.
	blobs []blob.Blob
	// wait is the leg's admission wait; resp carries it too, with the leg's
	// admit→done wall time as Service.
	wait time.Duration
	resp *Response
	err  error
}

// runLeg runs leg l of the session serving req (its Trace resolved) under
// plan key on l's replica: admission, plan-cache resolution (searching on
// miss), plan assembly over l.blobs, execution. span is the span the leg
// annotates and parents its work under — the session's own on a 1×1
// server, the leg's otherwise.
func (s *Server) runLeg(l *leg, req Request, key string, accuracy float64, span *obs.Span) {
	r := s.shards[l.shard].replicas[l.replica]
	enqueued := time.Now()
	r.queued.Add(1)
	r.sem <- struct{}{}
	admitted := time.Now()
	l.wait = admitted.Sub(enqueued)
	r.queued.Add(-1)
	r.active.Add(1)
	defer func() {
		<-r.sem
		r.active.Add(-1)
	}()
	r.legs.Add(1)

	pred := req.Pred
	ctx := obs.TraceContext{TraceID: req.Trace, SpanID: span.ID}
	// Of N legs racing into one uncached key on a replica one searches; the
	// others wait for its entry and count as plan hits.
	entry, cached, err := r.plans.resolve(key, func() (*planEntry, error) {
		return s.searchPlan(r, pred, accuracy, key, ctx)
	})
	if err != nil {
		l.err = err
		return
	}
	span.SetAttr("plan_key", key)
	span.SetAttr("plan_cached", strconv.FormatBool(cached))

	var filter engine.BlobFilter
	if entry.dec.Inject {
		filter = entry.filter
	}
	var b CorpusBuilder = s.cfg.Builder
	if req.Blobs != nil {
		b = s.cfg.Corpus
	}
	plan, err := b.BuildOver(l.blobs, pred, filter)
	if err != nil {
		l.err = fmt.Errorf("serve: build plan for %q: %w", pred.String(), err)
		return
	}
	// The run's spans are derived from its ledger, a failed run's partial
	// one included, under the span the leg parents its work under.
	start := time.Now()
	res, err := engine.Run(plan, s.cfg.Exec)
	s.cfg.Obs.EmitRun(ctx, start, res, err)
	if err != nil {
		l.err = fmt.Errorf("serve: run %q: %w", pred.String(), err)
		return
	}
	for _, op := range res.PerOp {
		r.scoreHits.Add(op.CacheHits)
		r.scoreMisses.Add(op.CacheMisses)
	}
	l.resp = &Response{
		ID:         req.ID,
		Result:     res,
		Decision:   entry.dec,
		PlanKey:    key,
		PlanCached: cached,
		QueueWait:  l.wait,
		Service:    time.Since(admitted),
	}
}

// searchPlan runs one plan search for replica r and wraps its decision as a
// cache entry, stamped with the version of the corpus snapshot the search
// consulted.
func (s *Server) searchPlan(r *replica, pred query.Pred, accuracy float64, key string, ctx obs.TraceContext) (*planEntry, error) {
	u, err := s.cfg.Builder.UDFCost(pred)
	if err != nil {
		return nil, fmt.Errorf("serve: UDF cost for %q: %w", pred.String(), err)
	}
	dec, err := s.cfg.Optimizer.Optimize(pred, optimizer.Options{
		Accuracy: accuracy,
		UDFCost:  u,
		Domains:  s.cfg.Domains,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: optimize %q: %w", pred.String(), err)
	}
	s.cfg.Obs.EmitSearch(ctx, pred, dec)
	e := &planEntry{key: key, version: dec.CorpusVersion, deps: dec.Consulted(), dec: dec}
	if dec.Inject {
		// One score-cache-attached filter per entry, shared by every session
		// that hits it — sharing is what makes cross-session score reuse
		// work; the engine keeps per-run accounting separate.
		e.filter = dec.Filter.WithScoreCache(r.scores)
	}
	return e, nil
}

// endSpan records a session's or leg's outcome on its span — the error, or
// the rows out and virtual cost — and ends it.
func endSpan(tr *obs.Tracer, sp *obs.Span, resp *Response, err error) {
	if err != nil {
		sp.SetAttr("error", err.Error())
	} else {
		sp.RowsOut = len(resp.Result.Rows)
		sp.CostVMS = resp.Result.ClusterTime
	}
	tr.End(sp)
}

// finish is the one session epilogue: it ends the session span, counts the
// session and its plan-cache outcome, observes its admission wait and
// service time, stamps the response with the session's trace and timings,
// and writes the session's single query-log record. The log write
// is non-blocking: a full buffer drops the record and bumps the writer's
// drop counter rather than stalling the serve path.
func (s *Server) finish(ss *session) (*Response, error) {
	resp, err := ss.resp, ss.err
	endSpan(s.cfg.Obs, &ss.span, resp, err)
	service := time.Since(ss.start) - ss.wait
	s.sessions.Add(1)
	m := &s.m
	m.sessions.Inc()
	switch {
	case err != nil:
		m.sessionErrors.Inc()
	case resp.PlanCached:
		m.planCacheHits.Inc()
	default:
		m.planCacheMisses.Inc()
	}
	m.admissionWait.ObserveExemplar(float64(ss.wait), ss.req.Trace)
	m.service.ObserveExemplar(float64(service), ss.req.Trace)
	if resp != nil {
		resp.TraceID, resp.QueueWait, resp.Service = ss.req.Trace, ss.wait, service
	}
	if s.cfg.QueryLog != nil {
		s.cfg.QueryLog.Log(s.record(ss, service))
	}
	return resp, err
}

// record builds the session's query-log record: the error, or the plan
// resolution, admission wait, estimated and observed PP reduction, output
// rows and virtual cost, plus the legs when the server scatters.
func (s *Server) record(ss *session, service time.Duration) pplog.Record {
	resp := ss.resp
	rec := pplog.Record{
		TimeUnixNS:  time.Now().UnixNano(),
		TraceID:     ss.req.Trace,
		Session:     ss.req.ID,
		PlanKey:     ss.key,
		Accuracy:    ss.req.Accuracy,
		QueueWaitNS: ss.wait.Nanoseconds(),
		ServiceNS:   service.Nanoseconds(),
		Seg:         ss.req.Segment,
	}
	if rec.Accuracy == 0 {
		rec.Accuracy = s.cfg.Accuracy
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
	if ss.err != nil {
		rec.Error = ss.err.Error()
		return rec
	}
	rec.PlanCached = resp.PlanCached
	if resp.Decision.Inject {
		rec.EstReduction = resp.Decision.Reduction
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
	return rec
}

// Stats snapshots the server's session count and its replicas' summed cache
// counters.
func (s *Server) Stats() Stats {
	st := Stats{Sessions: s.sessions.Load()}
	for _, sh := range s.shards {
		for _, r := range sh.replicas {
			r.addStats(&st)
		}
	}
	return st
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
				out[i], errs[i] = s.Do(Request{ID: q.ID, Pred: pred, Accuracy: q.Accuracy})
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
