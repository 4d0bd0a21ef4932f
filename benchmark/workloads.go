package main

import (
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"probpred/internal/blob"
	"probpred/internal/data"
	"probpred/internal/engine"
	"probpred/internal/mathx"
	"probpred/internal/metrics"
	"probpred/internal/optimizer"
	"probpred/internal/pplog"
	"probpred/internal/query"
	"probpred/internal/serve"
	"probpred/internal/stream"
)

// workload is one named traffic mix. Each stresses a different layer: an
// optimisation of one layer has a workload that exercises it and one that
// bypasses it, on which the prediction is no change.
type workload struct {
	name string
	// rate is the open-loop rate of the latency phase in operations per
	// second; zero makes the workload closed-loop only.
	rate    float64
	poisson bool
	// sloMS is the latency limit behind slo_ok_share.
	sloMS float64
	// lagLimitMS bounds how late the open-loop generator's typical (median)
	// dispatch may run.
	lagLimitMS float64
	// contrast is what defines the workload: the layer it exercises is busy
	// and the layer it bypasses is idle. A run that loses it is invalid.
	contrast []contrast
	// clients is the closed-loop client count.
	clients int
	// block is how many completions hold one full cycle of the mix; the
	// saturation rate is the median over blocks.
	block int
	setup func(cfg *config, seed uint64, nOpen int) (instance, error)
}

// contrast is one validity guard over the guard tally's shares.
type contrast struct {
	metric string
	op     string // ">=" or "<="
	limit  float64
}

func workloads(cfg *config) []*workload {
	return []*workload{
		{
			name: "traf20_steady",
			rate: cfg.steadyQPS, poisson: true, sloMS: 150, lagLimitMS: 40, clients: clients, block: 20,
			contrast: []contrast{{"serve.plan_hit_share", ">=", 0.99}, {"serve.score_hit_share", ">=", 0.95}},
			setup:    setupSteady,
		},
		{
			name:  "adhoc_cold",
			sloMS: 50, clients: clients, block: cfg.adhocPreds,
			contrast: []contrast{{"serve.plan_hit_share", "<=", 0.01}, {"optimizer.search_share", ">=", 0.4}},
			setup:    setupAdhoc,
		},
		{
			name: "stream_heavy",
			rate: cfg.segmentsPerS, sloMS: 250, lagLimitMS: 10, clients: 1, block: 16,
			contrast: []contrast{{"serve.score_hit_share", "<=", 0.30}, {"engine.ppfilter_share", ">=", 0.8}},
			setup:    setupStream,
		},
		{
			name:  "shard_scan",
			sloMS: 150, clients: clients, block: 20,
			setup: setupShard,
		},
	}
}

// instance is one set-up workload: servers built, caches warm.
type instance interface {
	// oracle computes the reference outputs. It runs once, outside setup_s.
	oracle() error
	// beginSlice names the guard tally operations add to and switches
	// per-operation detail on or off. Called between slices, never during one.
	beginSlice(traced bool, tl *tally)
	// do performs operation g of the request stream and checks its output.
	do(g int, r *opRecord)
	// limit is the exclusive end of the request stream (0 = endless).
	limit() int
	// quality returns the exact cost and recall figures of what was served.
	quality() (speedup, recallMean, recallMin float64)
	// finish runs the end-of-run checks and returns how many outputs missed
	// the oracle there.
	finish() (mismatches int, err error)
	stats() serve.Stats
	// layer adds to m the per-layer readings that come from direct calls
	// (score kernels, segment append) and from the instance's own counters;
	// every direct call it times is reported through span.
	layer(m map[string]float64, span func(name string, d time.Duration))
}

// tally accumulates the few sums the validity guards need. It is kept in
// both passes: it reads fields the program already returns.
type tally struct {
	sessions, planHits      atomic.Int64
	scoreHits, scoreLookups atomic.Int64
	searchNS, serviceNS     atomic.Int64
	ppfilterNS              atomic.Int64
}

// shares returns the tally as the per-layer shares the guards are stated in.
func (t *tally) shares() map[string]float64 {
	return map[string]float64{
		"serve.plan_hit_share":   share(t.planHits.Load(), t.sessions.Load()),
		"serve.score_hit_share":  share(t.scoreHits.Load(), t.scoreLookups.Load()),
		"optimizer.search_share": share(t.searchNS.Load(), t.serviceNS.Load()),
		"engine.ppfilter_share":  share(t.ppfilterNS.Load(), t.serviceNS.Load()),
	}
}

func (t *tally) session(resp *serve.Response) {
	t.sessions.Add(1)
	if resp.PlanCached {
		t.planHits.Add(1)
	} else {
		t.searchNS.Add(resp.Decision.Search.WallNS)
	}
	t.serviceNS.Add(int64(resp.Service))
	for _, op := range resp.Result.PerOp {
		if op.PPFilter {
			t.ppfilterNS.Add(op.WallNS)
			t.scoreHits.Add(int64(op.CacheHits))
			t.scoreLookups.Add(int64(op.CacheHits + op.CacheMisses))
		}
	}
}

func share(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// resultSig is what a served result is compared on: its row count, the
// ordered blob-ID list (hashed) and the virtual cluster cost at %.6f.
type resultSig struct {
	rows      int
	idHash    uint64
	costMicro int64
}

func sigOf(res *engine.Result) resultSig {
	h := uint64(14695981039346656037)
	for _, r := range res.Rows {
		h = (h ^ uint64(r.Blob.ID)) * 1099511628211
	}
	return resultSig{rows: len(res.Rows), idHash: h, costMicro: int64(math.Round(res.ClusterTime * 1e6))}
}

// sessionOf copies what the traced pass keeps of one response. legs is how
// many parallel legs the response's operator walls are summed over.
func sessionOf(resp *serve.Response, legs int) sessionDetail {
	s := sessionDetail{queueWait: resp.QueueWait, service: resp.Service, planCached: resp.PlanCached, legs: legs}
	if !resp.PlanCached {
		st := resp.Decision.Search
		s.search = time.Duration(st.WallNS)
		s.costed, s.memoHits, s.memoEntries = st.Costed, st.MemoHits, st.MemoEntries
	}
	s.ops = make([]opStat, len(resp.Result.PerOp))
	for i, op := range resp.Result.PerOp {
		kind := kindUDF
		switch {
		case op.PPFilter:
			kind = kindPPFilter
		case op.Name == "Scan":
			kind = kindScan
		case strings.HasPrefix(op.Name, "σ["):
			kind = kindSelect
		}
		s.ops[i] = opStat{
			kind: kind, wall: time.Duration(op.WallNS),
			rowsIn: op.RowsIn, rowsOut: op.RowsOut, hits: op.CacheHits, misses: op.CacheMisses,
		}
	}
	return s
}

// referencePlan plans pred exactly as the server does, on an optimizer of
// its own over the same corpus, and returns the filter to inject (nil when
// the optimizer declines).
func referencePlan(opt *optimizer.Optimizer, b builder, pred query.Pred) (engine.BlobFilter, error) {
	u, err := b.UDFCost(pred)
	if err != nil {
		return nil, err
	}
	dec, err := opt.Optimize(pred, optimizer.Options{Accuracy: accuracy, UDFCost: u, Domains: data.TrafficDomains()})
	if err != nil {
		return nil, err
	}
	if !dec.Inject {
		return nil, nil
	}
	return dec.Filter, nil
}

// runDirect runs one plan through engine.Run with no server, no caches and
// one worker: the reference execution.
func runDirect(b builder, blobs []blob.Blob, pred query.Pred, filter engine.BlobFilter) (*engine.Result, error) {
	plan, err := b.BuildOver(blobs, pred, filter)
	if err != nil {
		return nil, err
	}
	return engine.Run(plan, engine.Config{Workers: 1})
}

// queryRef is the oracle's entry for one predicate.
type queryRef struct {
	sig              resultSig
	nopRows          int
	nopCost, refCost float64
}

// doer is the serving surface a query workload drives: a Server or a
// Coordinator.
type doer interface {
	Do(serve.Request) (*serve.Response, error)
	Stats() serve.Stats
}

// serveInst is a query workload's instance: traf20_steady, adhoc_cold or
// shard_scan.
type serveInst struct {
	fx    *fixture
	blobs []blob.Blob
	d     doer
	root  string
	legs  int
	preds []namedPred
	// order maps a request-stream index to a predicate (see seededOrder).
	order []int32
	refs  []queryRef

	// coord and qlog are set on shard_scan only.
	coord *serve.Coordinator
	qlog  *pplog.Writer
	calls atomic.Int64

	tl     *tally
	traced bool
}

func (s *serveInst) limit() int         { return 0 }
func (s *serveInst) stats() serve.Stats { return s.d.Stats() }

func (s *serveInst) beginSlice(traced bool, tl *tally) { s.traced, s.tl = traced, tl }

// oracle runs every distinct predicate's NoP plan and PP plan through
// engine.Run directly and keeps the PP plan's signature. The PP output must
// be a subset of the NoP output: a PP only ever drops blobs.
func (s *serveInst) oracle() error {
	b := builder{}
	opt := optimizer.New(s.fx.opt.Corpus())
	s.refs = make([]queryRef, len(s.preds))
	for i, q := range s.preds {
		nop, err := runDirect(b, s.blobs, q.pred, nil)
		if err != nil {
			return fmt.Errorf("oracle %s NoP: %w", q.id, err)
		}
		filter, err := referencePlan(opt, b, q.pred)
		if err != nil {
			return fmt.Errorf("oracle %s plan: %w", q.id, err)
		}
		ref, err := runDirect(b, s.blobs, q.pred, filter)
		if err != nil {
			return fmt.Errorf("oracle %s PP: %w", q.id, err)
		}
		in := make(map[int]bool, len(nop.Rows))
		for _, r := range nop.Rows {
			in[r.Blob.ID] = true
		}
		for _, r := range ref.Rows {
			if !in[r.Blob.ID] {
				return fmt.Errorf("oracle %s: PP plan returned blob %d, which the NoP plan does not", q.id, r.Blob.ID)
			}
		}
		s.refs[i] = queryRef{sig: sigOf(ref), nopRows: len(nop.Rows), nopCost: nop.ClusterTime, refCost: ref.ClusterTime}
	}
	return nil
}

func (s *serveInst) do(g int, r *opRecord) {
	qi := s.order[g%len(s.order)]
	q := &s.preds[qi]
	t0 := time.Now()
	pred, err := query.Parse(q.text)
	t1 := time.Now()
	if err != nil {
		return
	}
	resp, err := s.d.Do(serve.Request{ID: q.id, Pred: pred})
	t2 := time.Now()
	s.calls.Add(1)
	if err != nil {
		return
	}
	r.ok = s.refs == nil || sigOf(resp.Result) == s.refs[qi].sig
	s.tl.session(resp)
	if s.traced {
		r.detail = &opDetail{root: s.root, parse: t1.Sub(t0), call: t2.Sub(t1), sessions: []sessionDetail{sessionOf(resp, s.legs)}}
	}
}

// quality counts each distinct predicate once, so the figures do not depend
// on how many operations a timed phase completed. Every served result
// equalled its reference, so the reference's cost is the served cost.
func (s *serveInst) quality() (speedup, recallMean, recallMin float64) {
	var nop, served, sum float64
	n := 0
	recallMin = math.Inf(1)
	for _, ref := range s.refs {
		nop += ref.nopCost
		served += ref.refCost
		if ref.nopRows >= minRecallRows {
			rec := float64(ref.sig.rows) / float64(ref.nopRows)
			sum += rec
			recallMin = math.Min(recallMin, rec)
			n++
		}
	}
	if n == 0 {
		return nop / served, 0, 0
	}
	return nop / served, sum / float64(n), recallMin
}

func (s *serveInst) finish() (int, error) {
	if s.qlog != nil {
		if err := s.qlog.Close(); err != nil {
			return 0, fmt.Errorf("query log: %w", err)
		}
	}
	return 0, nil
}

func (s *serveInst) layer(m map[string]float64, span func(string, time.Duration)) {
	scoreKernels(m, s.fx, s.blobs, span)
	if s.coord != nil {
		lo, hi := uint64(math.MaxUint64), uint64(0)
		for _, sh := range s.coord.ReplicaStats() {
			for _, st := range sh {
				lo, hi = min(lo, st.Sessions), max(hi, st.Sessions)
			}
		}
		if lo > 0 {
			m["shard.replica_session_skew"] = float64(hi) / float64(lo)
		}
	}
	if s.qlog != nil {
		m["pplog.records_per_op"] = float64(s.qlog.Written()) / float64(s.calls.Load())
		m["pplog.dropped"] = float64(s.qlog.Drops())
	}
}

// warm serves every listed predicate once, sequentially, through do.
func (s *serveInst) warm(idx []int32) error {
	s.beginSlice(false, &tally{})
	saved := s.order
	s.order = idx
	defer func() { s.order = saved }()
	for g := range idx {
		var r opRecord
		s.do(g, &r)
		if !r.ok {
			return fmt.Errorf("warm-up of %s failed", s.preds[idx[g]].id)
		}
	}
	return nil
}

// singleServer is one serve.Server bound to the fixture's scan.
func singleServer(f *fixture) (*serve.Server, error) {
	sc := baseServeConfig(f)
	sc.Builder = serve.BindCorpus(builder{}, f.scan)
	return serve.New(sc)
}

func baseServeConfig(f *fixture) serve.Config {
	return serve.Config{
		Optimizer:     f.opt,
		Accuracy:      accuracy,
		Domains:       data.TrafficDomains(),
		MaxConcurrent: maxConcurrent,
		Exec:          engine.Config{Workers: execWorkers},
	}
}

// seededOrder is the order a workload's n predicates are sent in. It is
// cycled, so any n consecutive operations hold each predicate once — a block
// of n completions is the same work wherever it starts — and a predicate
// recurs only after every other one.
func seededOrder(seed uint64, n int) []int32 {
	out := make([]int32, n)
	for i, p := range mathx.NewRNG(seed ^ 0x0cde7).Perm(n) {
		out[i] = int32(p)
	}
	return out
}

func setupSteady(cfg *config, seed uint64, _ int) (instance, error) {
	f, err := newFixture(cfg, svmCorpus, cfg.scanRows, 0)
	if err != nil {
		return nil, err
	}
	preds, err := traf20()
	if err != nil {
		return nil, err
	}
	srv, err := singleServer(f)
	if err != nil {
		return nil, err
	}
	s := &serveInst{
		fx: f, blobs: f.scan, d: srv, root: "serve.do", legs: 1, preds: preds,
		order: seededOrder(seed, len(preds)),
	}
	return s, s.warm(s.order)
}

func setupAdhoc(cfg *config, seed uint64, _ int) (instance, error) {
	f, err := newFixture(cfg, svmCorpus, cfg.adhocScanRows, 0)
	if err != nil {
		return nil, err
	}
	preds, err := adhocPredicates(cfg.adhocPreds)
	if err != nil {
		return nil, err
	}
	srv, err := singleServer(f)
	if err != nil {
		return nil, err
	}
	// A predicate's reuse distance is the set size, which exceeds the plan
	// cache: every request is a plan miss.
	order := seededOrder(seed, len(preds))
	s := &serveInst{
		fx: f, blobs: f.scan, d: srv, root: "serve.do", legs: 1, preds: preds, order: order,
	}
	// Warm on the order's last quarter: it fills the score cache and leaves
	// in the plan cache only predicates the timed phase reaches last.
	return s, s.warm(order[len(order)-len(order)/4:])
}

func setupShard(cfg *config, seed uint64, _ int) (instance, error) {
	f, err := newFixture(cfg, svmCorpus, cfg.scanRows, 0)
	if err != nil {
		return nil, err
	}
	preds, err := traf20()
	if err != nil {
		return nil, err
	}
	// Production telemetry on: registry and query log, span collection off.
	reg := metrics.New()
	qlog := pplog.NewWriter(io.Discard, 0, reg)
	base := baseServeConfig(f)
	base.Metrics = reg
	base.QueryLog = qlog
	coord, err := serve.NewSharded(serve.ShardedConfig{
		Base: base, Shards: shards, Replicas: replicas, Corpus: f.scan, Builder: builder{},
	})
	if err != nil {
		return nil, err
	}
	s := &serveInst{
		fx: f, blobs: f.scan, d: coord, root: "shard.do", legs: shards, preds: preds,
		order: seededOrder(seed, len(preds)), coord: coord, qlog: qlog,
	}
	// Round-robin routing alternates replicas per leg: each predicate twice
	// in a row reaches both replicas of every shard.
	twice := make([]int32, 0, 2*len(preds))
	for i := range preds {
		twice = append(twice, int32(i), int32(i))
	}
	return s, s.warm(twice)
}

// streamInst is stream_heavy's instance: one Ingestor over one Server.
type streamInst struct {
	cfg   *config
	fx    *fixture
	srv   *serve.Server
	in    *stream.Ingestor
	preds []namedPred
	// segs is the request stream: operation g ingests segs[g]. The first
	// nOpen are the open-loop phases' segments in seeded order.
	segs  [][]blob.Blob
	nOpen int

	// nop[g][q] is the NoP reference of scheduled segment g; ppRef holds the
	// PP reference of every refSampleStep-th one.
	nop   [][]queryRef
	ppRef map[int][]resultSig

	mu sync.Mutex
	// served[g][q] is what phase-A operation g returned for query q; ids
	// keeps every delta's blob IDs by corpus segment index for the backfill
	// comparison.
	served map[int][]queryRef
	ids    map[int][][]int32

	tl     *tally
	traced bool
}

func (s *streamInst) limit() int         { return len(s.segs) }
func (s *streamInst) stats() serve.Stats { return s.srv.Stats() }

func (s *streamInst) beginSlice(traced bool, tl *tally) { s.traced, s.tl = traced, tl }

func setupStream(cfg *config, seed uint64, nOpen int) (instance, error) {
	f, err := newFixture(cfg, mixedCorpus, 0, cfg.poolRows)
	if err != nil {
		return nil, err
	}
	preds, err := standingQueries()
	if err != nil {
		return nil, err
	}
	sc := baseServeConfig(f)
	sc.Corpus = builder{}
	srv, err := serve.New(sc)
	if err != nil {
		return nil, err
	}
	// Online is nil: PP state is frozen, so deltas must equal the backfill.
	in, err := stream.New(stream.Config{Server: srv, Corpus: stream.NewSegmentedCorpus()})
	if err != nil {
		return nil, err
	}
	for _, q := range preds {
		if err := in.Register(stream.Query{ID: q.id, Pred: q.text, Accuracy: accuracy}); err != nil {
			return nil, err
		}
	}
	pool := make([][]blob.Blob, 0, len(f.fresh)/cfg.segmentRows)
	for at := 0; at+cfg.segmentRows <= len(f.fresh); at += cfg.segmentRows {
		pool = append(pool, f.fresh[at:at+cfg.segmentRows])
	}
	if cfg.warmSegments+nOpen >= len(pool) {
		return nil, fmt.Errorf("segment pool of %d cannot hold %d warm and %d scheduled segments", len(pool), cfg.warmSegments, nOpen)
	}
	s := &streamInst{
		cfg: cfg, fx: f, srv: srv, in: in, preds: preds, nOpen: nOpen,
		served: map[int][]queryRef{}, ids: map[int][][]int32{},
	}
	s.beginSlice(false, &tally{})
	for _, seg := range pool[:cfg.warmSegments] {
		if _, _, ok := s.ingest(seg, -1); !ok {
			return nil, fmt.Errorf("warm-up ingest failed")
		}
	}
	// The scheduled segments are one fixed set in a seeded order, so the
	// exact counts over them do not depend on the seed.
	rest := pool[cfg.warmSegments:]
	s.segs = make([][]blob.Blob, 0, len(rest))
	for _, p := range mathx.NewRNG(seed ^ 0x5e65).Perm(nOpen) {
		s.segs = append(s.segs, rest[p])
	}
	s.segs = append(s.segs, rest[nOpen:]...)
	return s, nil
}

// oracle computes, for every scheduled segment, each standing query's NoP
// reference, and for every refSampleStep-th one the PP plan's too. A PP
// reference for all of them would cost as much as the timed phase itself.
func (s *streamInst) oracle() error {
	b := builder{}
	opt := optimizer.New(s.fx.opt.Corpus())
	filter := make([]engine.BlobFilter, len(s.preds))
	for i, q := range s.preds {
		f, err := referencePlan(opt, b, q.pred)
		if err != nil {
			return fmt.Errorf("oracle %s plan: %w", q.id, err)
		}
		filter[i] = f
	}
	s.nop = make([][]queryRef, s.nOpen)
	s.ppRef = map[int][]resultSig{}
	for g := 0; g < s.nOpen; g++ {
		s.nop[g] = make([]queryRef, len(s.preds))
		for i, q := range s.preds {
			nop, err := runDirect(b, s.segs[g], q.pred, nil)
			if err != nil {
				return fmt.Errorf("oracle %s NoP: %w", q.id, err)
			}
			s.nop[g][i] = queryRef{nopRows: len(nop.Rows), nopCost: nop.ClusterTime}
		}
		if g%s.cfg.refSampleStep != 0 {
			continue
		}
		sigs := make([]resultSig, len(s.preds))
		for i, q := range s.preds {
			ref, err := runDirect(b, s.segs[g], q.pred, filter[i])
			if err != nil {
				return fmt.Errorf("oracle %s PP: %w", q.id, err)
			}
			sigs[i] = sigOf(ref)
		}
		s.ppRef[g] = sigs
	}
	return nil
}

// ingest lands one segment and checks its deltas: every returned blob must
// satisfy the predicate on ground truth (so the delta is a subset of the NoP
// output), and a segment with a PP reference must match it exactly.
func (s *streamInst) ingest(seg []blob.Blob, g int) ([]stream.Delta, time.Duration, bool) {
	t0 := time.Now()
	deltas, err := s.in.Ingest(seg)
	call := time.Since(t0)
	if err != nil || len(deltas) != len(s.preds) {
		return nil, call, false
	}
	ok := true
	ids := make([][]int32, len(deltas))
	served := make([]queryRef, len(deltas))
	for i, d := range deltas {
		res := d.Resp.Result
		ids[i] = make([]int32, len(res.Rows))
		for j, row := range res.Rows {
			ids[i][j] = int32(row.Blob.ID)
			if match, err := s.preds[i].pred.Eval(data.TrafficLookup(row.Blob)); err != nil || !match {
				ok = false
			}
		}
		served[i] = queryRef{sig: resultSig{rows: len(res.Rows)}, refCost: res.ClusterTime}
		if ref, has := s.ppRef[g]; has && sigOf(res) != ref[i] {
			ok = false
		}
		s.tl.session(d.Resp)
	}
	s.mu.Lock()
	s.ids[deltas[0].Segment.Index] = ids
	if g >= 0 && g < s.nOpen {
		s.served[g] = served
	}
	s.mu.Unlock()
	return deltas, call, ok
}

func (s *streamInst) do(g int, r *opRecord) {
	deltas, call, ok := s.ingest(s.segs[g], g)
	r.ok = ok
	if s.traced && deltas != nil {
		d := &opDetail{root: "stream.ingest", call: call, sessions: make([]sessionDetail, len(deltas))}
		for i, dl := range deltas {
			d.sessions[i] = sessionOf(dl.Resp, 1)
		}
		r.detail = d
	}
}

// quality sums over (standing query x scheduled segment), each counted once
// and in schedule order.
func (s *streamInst) quality() (speedup, recallMean, recallMin float64) {
	var nop, served float64
	nopRows := make([]int, len(s.preds))
	gotRows := make([]int, len(s.preds))
	for g := 0; g < s.nOpen; g++ {
		got, has := s.served[g]
		if !has {
			continue
		}
		for i := range s.preds {
			nop += s.nop[g][i].nopCost
			served += got[i].refCost
			nopRows[i] += s.nop[g][i].nopRows
			gotRows[i] += got[i].sig.rows
		}
	}
	if served == 0 {
		return 0, 0, 0
	}
	recallMin = math.Inf(1)
	n := 0
	for i := range s.preds {
		if nopRows[i] >= minRecallRows {
			rec := float64(gotRows[i]) / float64(nopRows[i])
			recallMean += rec
			recallMin = math.Min(recallMin, rec)
			n++
		}
	}
	if n == 0 {
		return nop / served, 0, 0
	}
	return nop / served, recallMean / float64(n), recallMin
}

// finish checks "concatenated deltas == BatchQuery backfill": every standing
// query's batch result over the whole corpus must list exactly the blobs its
// per-segment deltas listed, in corpus order.
func (s *streamInst) finish() (int, error) {
	mismatches := 0
	segments, _ := s.in.Stats()
	for i, q := range s.preds {
		resp, err := s.in.BatchQuery(q.id)
		if err != nil {
			return 0, fmt.Errorf("backfill %s: %w", q.id, err)
		}
		var want []int32
		for seg := 0; seg < int(segments); seg++ {
			want = append(want, s.ids[seg][i]...)
		}
		rows := resp.Result.Rows
		same := len(rows) == len(want)
		for j := 0; same && j < len(rows); j++ {
			same = int32(rows[j].Blob.ID) == want[j]
		}
		if !same {
			mismatches++
		}
	}
	return mismatches, nil
}

func (s *streamInst) layer(m map[string]float64, span func(string, time.Duration)) {
	// The pool's tail: the last blobs a run would ingest, never scored so far.
	scoreKernels(m, s.fx, s.fx.fresh[len(s.fx.fresh)*3/4:], span)
	// stream.append: the benchmark's own call into SegmentedCorpus.Append, on
	// a scratch corpus so the served one is left alone.
	scratch := stream.NewSegmentedCorpus()
	var us []float64
	for _, seg := range s.segs[:min(64, len(s.segs))] {
		t0 := time.Now()
		scratch.Append(seg)
		d := time.Since(t0)
		span("stream.append", d)
		us = append(us, float64(d)/float64(time.Microsecond))
	}
	m["stream.append_us_p50"] = median(us)
}
