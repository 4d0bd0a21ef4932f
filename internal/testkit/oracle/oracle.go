// Package oracle is the composition oracle: the one property every way of
// executing a query must satisfy. A Draw picks an execution strategy —
// engine workers, score cache on or off, shards × replicas × routing, a
// stream segmentation, fan-out width, adaptive re-optimization, UDF faults
// with retries, telemetry — and a workload of mini-traffic queries. Check
// serves the workload that way and holds every result to a reference: one serial,
// uncached, unsharded engine.Run of the same decision over the same blobs,
// with a fault injector built from the same seed.
//
// Like the testkit it builds on, only _test.go files import it; unlike the
// testkit it imports the whole stack, so it is imported only from external
// test packages (serve_test, stream_test, testkit_test).
package oracle

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"

	"probpred/internal/adapt"
	"probpred/internal/blob"
	"probpred/internal/engine"
	"probpred/internal/fault"
	"probpred/internal/mathx"
	"probpred/internal/metrics"
	"probpred/internal/obs"
	"probpred/internal/optimizer"
	"probpred/internal/pplog"
	"probpred/internal/query"
	"probpred/internal/serve"
	"probpred/internal/stream"
	"probpred/internal/testkit"
)

// Draw is one execution strategy plus the workload it serves.
type Draw struct {
	// Blobs and Seed make the corpus: testkit.Blobs(Blobs, Seed), or with
	// Drift testkit.DriftBlobs(Blobs), whose statistics invert the ones the
	// PPs were validated on. Seed also seeds the fault injector.
	Blobs int
	Seed  uint64
	Drift bool
	// Queries is the workload; a zero Accuracy selects 0.95.
	Queries []testkit.Query
	// Workers is the engine's worker count. Zero selects 1.
	Workers int
	// NoCache turns the score cache off.
	NoCache bool
	// Shards > 0 serves through a Coordinator of Shards × Replicas servers
	// (Replicas zero selects 1) under Routing; zero serves through one
	// Server.
	Shards, Replicas int
	Routing          serve.RoutingPolicy
	// Stream ingests the corpus through a stream.Ingestor, as segments cut
	// at Cuts (non-decreasing indices into the corpus; a repeated cut is an
	// empty segment), each query registered as a standing query. Otherwise
	// the workload is replayed over the static corpus.
	Stream bool
	Cuts   []int
	// MaxConcurrent bounds each server's admitted sessions; it is also the
	// replay concurrency. Zero selects 1.
	MaxConcurrent int
	// Adapt attaches an adaptive re-optimization controller.
	Adapt bool
	// Faults fails 10 % of UDF attempts transiently; the engine retries.
	Faults bool
	// Observe turns telemetry on — metrics registry, span collector, query
	// log — and joins every served session across them (see telemetry).
	Observe bool
}

// String names every field, so a failure names its draw.
func (d Draw) String() string {
	type fields Draw
	return fmt.Sprintf("%+v", fields(d))
}

// costCheck is how closely a served ClusterTime must match the reference.
type costCheck int

const (
	costBits        costCheck = iota // every bit of the serial reference's, per operator and in total
	costWorkersBits                  // every bit of a reference at the draw's worker count
	costClose                        // within 1e-9 relative of that reference
	costSkip                         // not compared, nor the PP filter's clause order (its name)
)

// relaxations lists every draw property that legitimately moves the served
// cost off the serial reference's bits, and why. Rows, their order, the subset of
// the NoP plan's output and Σ PerOp.Cost = ClusterTime are never relaxed.
var relaxations = []struct {
	name    string
	applies func(Draw) bool
	cost    costCheck
	why     string
}{
	{"workers>1", func(d Draw) bool { return d.Workers > 1 }, costWorkersBits,
		"worker chunks sum their own subtotals, regrouping the per-row float sum as a reference at that worker count does"},
	{"adapt", func(d Draw) bool { return d.Adapt }, costSkip,
		"a swap re-orders the PP filter mid-run (and sessions after it start on the promoted order), so other leaves are scored, and the re-plan is charged"},
	{"shards>1", func(d Draw) bool { return d.Shards > 1 }, costClose,
		"the coordinator adds per-shard subtotals, regrouping the per-row float sum"},
}

// costLevel is the strictest cost check no relaxation loosens.
func (d Draw) costLevel() costCheck {
	level := costBits
	for _, r := range relaxations {
		if r.applies(d) && r.cost > level {
			level = r.cost
		}
	}
	return level
}

// Check serves d's workload under d's strategy, holds every result to the
// reference and returns the front door's counters.
func Check(tb testing.TB, d Draw) serve.Stats {
	tb.Helper()
	ppc := optimizer.NewCorpus()
	for _, pp := range testkit.PPs(tb, testkit.Blobs(400, 8)) {
		ppc.Add(pp)
	}
	c := &checker{tb: tb, d: d, blobs: testkit.Blobs(d.Blobs, d.Seed), level: d.costLevel()}
	if d.Drift {
		c.blobs = testkit.DriftBlobs(d.Blobs)
	}
	if d.Faults {
		c.retry = engine.RetryPolicy{MaxAttempts: 6, BackoffBaseMS: 5}
	}
	// Each query's reference decision comes from a fresh optimizer, so the
	// reference shares no plan state with the system under test.
	opt := optimizer.New(ppc)
	for _, q := range d.Queries {
		if q.Accuracy == 0 {
			q.Accuracy = 0.95
		}
		pred := query.MustParse(q.Pred)
		dec, err := opt.Optimize(pred, optimizer.Options{Accuracy: q.Accuracy, UDFCost: 40, Domains: testkit.Domains()})
		if err != nil {
			tb.Fatalf("%v: reference plan for %s: %v", d, q.ID, err)
		}
		var f engine.BlobFilter
		if dec.Inject {
			f = dec.Filter
		}
		c.queries, c.preds, c.filters = append(c.queries, q), append(c.preds, pred), append(c.filters, f)
	}
	// One session per query, or per query per segment plus its backfill.
	requests := len(d.Queries)
	if d.Stream {
		requests *= len(d.Cuts) + 2
	}
	f := c.front(ppc, requests*(1+d.Shards))
	if d.Stream {
		c.stream(f)
	} else {
		c.replay(f)
	}
	if len(c.served) != requests {
		tb.Errorf("%v: %d responses checked, want %d", d, len(c.served), requests)
	}
	if d.Observe {
		c.telemetry()
	}
	st := f.Stats()
	if legs := uint64(requests * max(d.Shards, 1)); st.Sessions != legs {
		tb.Errorf("%v: %d sessions, want %d", d, st.Sessions, legs)
	}
	if d.Shards > 0 && (st.ScatterSessions != uint64(requests) || st.ScatterFailures != 0) {
		tb.Errorf("%v: %d scatter sessions (%d failed), want %d", d, st.ScatterSessions, st.ScatterFailures, requests)
	}
	return st
}

// checker carries one Check: the draw, its corpus, each query (accuracy
// resolved), parsed predicate and reference filter (nil: no injection), the
// responses checked so far, and with Observe the telemetry sinks.
type checker struct {
	tb      testing.TB
	d       Draw
	blobs   []blob.Blob
	level   costCheck
	retry   engine.RetryPolicy
	queries []testkit.Query
	preds   []query.Pred
	filters []engine.BlobFilter
	served  []*serve.Response

	reg   *metrics.Registry
	spans *obs.Collector
	qlog  *pplog.Writer
	log   bytes.Buffer
}

// builder is the mini plan builder; with faults on, every call gets a fresh
// injector from the draw's seed, so the system and the reference see one
// fault schedule.
func (c *checker) builder() testkit.Builder {
	if !c.d.Faults {
		return testkit.Builder{}
	}
	inj := fault.NewInjector(c.d.Seed)
	inj.SetDefault(fault.Spec{TransientRate: 0.1, MaxConsecutive: 3})
	return testkit.Builder{Faults: inj}
}

// front is what Check drives: a Server or a Coordinator.
type front interface {
	stream.Server
	Replay([]serve.WorkloadQuery, int) ([]*serve.Response, error)
	Stats() serve.Stats
}

// front builds the system under test. A single server is bound to the whole
// corpus too, so a streamed request that lost its blobs scans the wrong
// ones instead of none. The query log buffers all the records the draw
// writes, so none is dropped.
func (c *checker) front(ppc *optimizer.Corpus, records int) front {
	d, b := c.d, c.builder()
	cfg := serve.Config{
		Optimizer:         optimizer.New(ppc),
		Builder:           serve.BindCorpus(b, c.blobs),
		Corpus:            b,
		Domains:           testkit.Domains(),
		MaxConcurrent:     max(d.MaxConcurrent, 1),
		Exec:              engine.Config{NoStageOverhead: true, Workers: d.Workers, Retry: c.retry},
		DisableScoreCache: d.NoCache,
		Routing:           d.Routing,
	}
	if d.Adapt {
		cfg.Adapt = adapt.New(adapt.Config{ChunkRows: 32})
	}
	if d.Observe {
		c.reg, c.spans = metrics.New(), obs.NewCollector()
		c.qlog = pplog.NewWriter(&c.log, records, c.reg)
		cfg.Metrics, cfg.Obs, cfg.QueryLog = c.reg, obs.New(c.spans), c.qlog
	}
	var f front
	var err error
	if d.Shards == 0 {
		f, err = serve.New(cfg)
	} else {
		f, err = serve.NewSharded(serve.ShardedConfig{Base: cfg, Shards: d.Shards, Replicas: d.Replicas, Corpus: c.blobs, Builder: b})
	}
	if err != nil {
		c.tb.Fatalf("%v: %v", d, err)
	}
	return f
}

// reference runs query i's plan — the reference decision's, or NoP when
// filter is nil — over blobs the plainest way: one uncached engine.Run.
func (c *checker) reference(i int, blobs []blob.Blob, filter engine.BlobFilter, workers int) *engine.Result {
	plan, err := c.builder().BuildOver(blobs, c.preds[i], filter)
	if err == nil {
		var res *engine.Result
		if res, err = engine.Run(plan, engine.Config{NoStageOverhead: true, Workers: workers, Retry: c.retry}); err == nil {
			return res
		}
	}
	c.tb.Fatalf("%v: reference run of %s: %v", c.d, c.queries[i].ID, err)
	return nil
}

// compare holds one served result for query i over blobs to the serial
// reference's rows and to the costs of the reference the draw's cost level
// names.
func (c *checker) compare(label string, i int, blobs []blob.Blob, resp *serve.Response) {
	tb, got := c.tb, resp.Result
	tb.Helper()
	c.served = append(c.served, resp)
	label = fmt.Sprintf("%v\n%s", c.d, label)
	serial, nop := c.reference(i, blobs, c.filters[i], 1), c.reference(i, blobs, nil, 1)
	want := serial
	if c.level > costBits && c.d.Workers > 1 {
		want = c.reference(i, blobs, c.filters[i], c.d.Workers)
	}
	if g, w := testkit.RenderRows(got.Rows), testkit.RenderRows(serial.Rows); g != w {
		tb.Errorf("%s: rows differ from the reference\n got: %s\nwant: %s", label, g, w)
	}
	all := make(map[int]bool, len(nop.Rows))
	for _, r := range nop.Rows {
		all[r.Blob.ID] = true
	}
	for _, r := range got.Rows {
		if !all[r.Blob.ID] {
			tb.Errorf("%s: blob %d is not in the NoP plan's output", label, r.Blob.ID)
		}
	}
	testkit.CheckLedger(tb, label, got, adapt.ReplanOp)
	exact := c.level <= costWorkersBits
	if len(got.PerOp) < len(want.PerOp) {
		tb.Errorf("%s: %d operators, reference has %d", label, len(got.PerOp), len(want.PerOp))
		return
	}
	for j, w := range want.PerOp {
		if g := got.PerOp[j]; g.Name != w.Name && !(c.level == costSkip && w.PPFilter) || g.RowsIn != w.RowsIn || g.RowsOut != w.RowsOut || exact && g.Cost != w.Cost {
			tb.Errorf("%s: operator %d is %s %d→%d at %x, reference %s %d→%d at %x", label, j, g.Name, g.RowsIn, g.RowsOut, g.Cost, w.Name, w.RowsIn, w.RowsOut, w.Cost)
		}
	}
	g, w := got.ClusterTime, want.ClusterTime
	if exact && g != w || c.level == costClose && math.Abs(g-w) > 1e-9*math.Abs(w) {
		tb.Errorf("%s: ClusterTime %v, reference %v", label, g, w)
	}
}

// replay serves the workload over the static corpus.
func (c *checker) replay(f front) {
	w := make([]serve.WorkloadQuery, len(c.queries))
	for i, q := range c.queries {
		w[i] = serve.WorkloadQuery(q)
	}
	resps, err := f.Replay(w, max(c.d.MaxConcurrent, 1))
	if err != nil {
		c.tb.Fatalf("%v: %v", c.d, err)
	}
	for i, r := range resps {
		if r.ID != w[i].ID {
			c.tb.Errorf("%v: response %d is %s, want %s", c.d, i, r.ID, w[i].ID)
		}
		c.compare(r.ID, i, c.blobs, r)
	}
}

// stream registers the workload as standing queries, ingests the corpus
// segment by segment and checks every delta and its accuracy audit, the
// concatenated deltas, and the backfill.
func (c *checker) stream(f front) {
	ing, err := stream.New(stream.Config{Server: f, Corpus: stream.NewSegmentedCorpus(), Lookup: testkit.Lookup})
	for _, q := range c.queries {
		if err == nil {
			err = ing.Register(stream.Query(q))
		}
	}
	if err != nil {
		c.tb.Fatalf("%v: %v", c.d, err)
	}
	live := make([][]engine.Row, len(c.queries))
	segs := testkit.Split(c.blobs, c.d.Cuts)
	for s, seg := range segs {
		deltas, err := ing.Ingest(seg)
		if err != nil {
			c.tb.Fatalf("%v: segment %d: %v", c.d, s, err)
		}
		if len(deltas) != len(c.queries) {
			c.tb.Fatalf("%v: segment %d emitted %d deltas, want %d", c.d, s, len(deltas), len(c.queries))
		}
		for i, dl := range deltas {
			label := fmt.Sprintf("%s segment %d", dl.Query, s)
			if dl.Query != c.queries[i].ID || dl.Segment.Index != s {
				c.tb.Errorf("%v\n%s: delta %d is segment %d's, want %s in registration order", c.d, label, i, dl.Segment.Index, c.queries[i].ID)
			}
			c.compare(label, i, seg, dl.Resp)
			live[i] = append(live[i], dl.Resp.Result.Rows...)
			// The audit: the share of the segment's true matches retained.
			truth, kept := 0, 0
			for _, b := range seg {
				truth += c.match(i, b)
			}
			for _, r := range dl.Resp.Result.Rows {
				kept += c.match(i, r.Blob)
			}
			if dl.Audited != (truth > 0) || dl.Expected != truth || truth > 0 && dl.Observed != float64(kept)/float64(truth) {
				c.tb.Errorf("%v\n%s: audit (%v, %d, %v) of %d/%d true matches kept", c.d, label, dl.Audited, dl.Expected, dl.Observed, kept, truth)
			}
		}
	}
	for i, q := range c.queries {
		if g, w := testkit.RenderRows(live[i]), testkit.RenderRows(c.reference(i, c.blobs, c.filters[i], 1).Rows); g != w {
			c.tb.Errorf("%v\n%s: live deltas differ from the reference over the corpus\n got: %s\nwant: %s", c.d, q.ID, g, w)
		}
		batch, err := ing.BatchQuery(q.ID)
		if err != nil {
			c.tb.Fatalf("%v: backfill %s: %v", c.d, q.ID, err)
		}
		c.compare(q.ID+" backfill", i, c.blobs, batch)
	}
	if n, ds := ing.Stats(); n != uint64(len(segs)) || ds != uint64(len(segs)*len(c.queries)) {
		c.tb.Errorf("%v: ingestor counts %d segments and %d deltas, want %d and %d", c.d, n, ds, len(segs), len(segs)*len(c.queries))
	}
}

// telemetry joins every checked session across the three sinks: a trace ID
// of its own, under it one session record in the query log plus one per
// shard leg, and one span tree — the session span, the leg sessions under
// it when sharded, run and operator spans below — that every span of the
// trace belongs to. The p99 service-time exemplar names one of them.
func (c *checker) telemetry() {
	tb, d := c.tb, c.d
	if err := c.qlog.Close(); err != nil || c.qlog.Drops() != 0 {
		tb.Fatalf("%v: query log: %v, %d records dropped", d, err, c.qlog.Drops())
	}
	recs, err := pplog.Read(&c.log)
	if err != nil {
		tb.Fatalf("%v: query log: %v", d, err)
	}
	logged := map[string][]pplog.Record{}
	for _, r := range recs {
		logged[r.TraceID] = append(logged[r.TraceID], r)
	}
	traced := map[string][]obs.Span{}
	for _, sp := range c.spans.Spans() {
		traced[sp.Trace] = append(traced[sp.Trace], sp)
	}
	policy := d.Routing
	if policy == "" {
		policy = serve.RouteRoundRobin
	}
	for _, resp := range c.served {
		label := fmt.Sprintf("%v\n%s trace %q", d, resp.ID, resp.TraceID)
		if rs := logged[resp.TraceID]; resp.TraceID == "" || len(rs) != 1+d.Shards {
			tb.Errorf("%s: %d query-log records, want %d", label, len(rs), 1+d.Shards)
		}
		for _, r := range logged[resp.TraceID] {
			if r.IsSession() && (r.PlanKey != resp.PlanKey || len(r.Legs) != d.Shards || d.Shards > 0 && r.Policy != string(policy)) ||
				!r.IsSession() && (r.Leg.Shard < 0 || r.Leg.Shard >= d.Shards) {
				tb.Errorf("%s: query-log record %+v", label, r)
			}
		}
		delete(logged, resp.TraceID)
		spans := traced[resp.TraceID]
		byID := make(map[int64]obs.Span, len(spans))
		kinds, roots := map[string]int{}, 0
		for _, sp := range spans {
			byID[sp.ID] = sp
			kinds[sp.Kind]++
			if sp.Parent == 0 {
				roots++
			}
		}
		for _, sp := range spans {
			for sp.Parent != 0 {
				if sp = byID[sp.Parent]; sp.ID == 0 {
					tb.Errorf("%s: span with a parent outside the trace", label)
					break
				}
			}
			if sp.ID != 0 && sp.Kind != obs.KindSession {
				tb.Errorf("%s: span tree rooted at a %s span", label, sp.Kind)
			}
		}
		if sessions := kinds[obs.KindSession]; roots != 1 || sessions != 1+d.Shards || kinds[obs.KindRun] == 0 || kinds[obs.KindOperator] == 0 {
			tb.Errorf("%s: span kinds %v, %d roots; want one root, %d sessions, run and operator spans", label, kinds, roots, 1+d.Shards)
		}
	}
	if len(logged) != 0 {
		tb.Errorf("%v: %d query-log traces belong to no checked session", d, len(logged))
	}
	if ex := c.reg.Histogram("serve_service_ns", "").QuantileExemplar(0.99); ex == nil || ex.TraceID == "" {
		tb.Errorf("%v: no p99 service-time exemplar", d)
	} else if !slices.ContainsFunc(c.served, func(r *serve.Response) bool { return r.TraceID == ex.TraceID }) {
		tb.Errorf("%v: p99 exemplar trace %q is no checked session's", d, ex.TraceID)
	}
}

// match is 1 when b truly satisfies query i, else 0.
func (c *checker) match(i int, b blob.Blob) int {
	if ok, _ := c.preds[i].Eval(testkit.Lookup(b)); ok {
		return 1
	}
	return 0
}

// Random draws a strategy and a one-to-three-query workload from seed.
func Random(seed uint64) Draw {
	rng := mathx.NewRNG(seed)
	pick := func(xs ...int) int { return xs[rng.Intn(len(xs))] }
	d := Draw{
		Blobs:         40 + rng.Intn(160),
		Seed:          seed,
		Workers:       pick(1, 4),
		NoCache:       rng.Bernoulli(0.5),
		Shards:        pick(0, 1, 2, 4),
		Replicas:      pick(1, 2),
		Routing:       []serve.RoutingPolicy{serve.RouteRoundRobin, serve.RouteLeastLoaded, serve.RoutePlanAffinity}[rng.Intn(3)],
		Stream:        rng.Bernoulli(0.5),
		MaxConcurrent: pick(1, 2, 8),
		Adapt:         rng.Bernoulli(0.3),
		Drift:         rng.Bernoulli(0.2),
		Faults:        rng.Bernoulli(0.5),
		Observe:       rng.Bernoulli(0.3),
	}
	if d.Stream {
		// Cut points favour the shapes that break naive streaming: an empty
		// first segment, 1-blob and empty segments, a cut at the end.
		at := 0
		for n := rng.Intn(5); n > 0; n-- {
			switch rng.Intn(4) {
			case 0: // repeat: an empty segment
			case 1:
				at++
			default:
				at += rng.Intn(d.Blobs/2 + 1)
			}
			d.Cuts = append(d.Cuts, min(at, d.Blobs))
		}
	}
	for q := 1 + rng.Intn(3); q > 0; q-- {
		d.Queries = append(d.Queries, testkit.Query{
			ID:       fmt.Sprintf("R%d", q),
			Pred:     testkit.RandomPred(rng, 1+rng.Intn(3)),
			Accuracy: []float64{0.9, 0.95, 1}[rng.Intn(3)],
		})
	}
	return d
}
