package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"probpred/internal/blob"
	"probpred/internal/serve"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a caller of the system sees. Every workload
// reports every one; they come from the untraced pass only.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"total_p50_ms", "ms"},
	{"slo_ok_share", "share"},
	{"sat_qps", "1/s"},
	{"cost_speedup_x", "x"},
	{"recall_mean", "share"},
	{"recall_min", "share"},
	{"heap_mb", "MB"},
}

// perLayerMetrics come from the traced pass. A metric that does not apply to
// a workload (shard.* on a single server, stream.* on a query workload, a
// percentile with fewer than ten samples beyond it) reads 0 there.
var perLayerMetrics = []metricDef{
	{"query.parse_us_p50", "us"},
	{"optimizer.search_ms_p50", "ms"},
	{"optimizer.search_ms_p95", "ms"},
	{"optimizer.search_share", "share"},
	{"optimizer.candidates_costed_mean", "count"},
	{"optimizer.memo_hit_share", "share"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p95", "ms"},
	{"serve.service_ms_p50", "ms"},
	{"serve.service_ms_p95", "ms"},
	{"serve.self_ms_p50", "ms"},
	{"serve.plan_hit_share", "share"},
	{"serve.plan_entries", "count"},
	{"serve.score_hit_share", "share"},
	{"serve.score_entries", "count"},
	{"serve.score_lookups_per_op", "count"},
	{"engine.scan_ms_p50", "ms"},
	{"engine.ppfilter_ms_p50", "ms"},
	{"engine.udf_ms_p50", "ms"},
	{"engine.select_ms_p50", "ms"},
	{"engine.ppfilter_ns_per_row", "ns/row"},
	{"engine.udf_ns_per_row", "ns/row"},
	{"engine.ppfilter_share", "share"},
	{"engine.udf_share", "share"},
	{"engine.ppfilter_pass_share", "share"},
	{"engine.rows_to_udf_per_op", "count"},
	{"core.score_ns_per_row.svm", "ns/row"},
	{"core.score_ns_per_row.kde", "ns/row"},
	{"core.score_ns_per_row.dnn", "ns/row"},
	{"core.score_mallocs_per_row", "count"},
	{"shard.scatter_overhead_ms_p50", "ms"},
	{"shard.scatter_overhead_ms_p95", "ms"},
	{"shard.replica_session_skew", "x"},
	{"stream.ingest_ms_p50", "ms"},
	{"stream.ingest_ms_p95", "ms"},
	{"stream.session_ms_p50", "ms"},
	{"stream.self_ms_p50", "ms"},
	{"stream.append_us_p50", "us"},
	{"stream.backlog_max_segments", "count"},
	{"stream.deltas_per_segment", "count"},
	{"pplog.records_per_op", "count"},
	{"pplog.dropped", "count"},
	{"runtime.mallocs_per_op", "count"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.ok", "count"},
	{"loadgen.failed", "count"},
	{"loadgen.offered_qps", "1/s"},
	{"loadgen.achieved_qps", "1/s"},
	{"loadgen.lag_ms_p50", "ms"},
	{"loadgen.lag_ms_p95", "ms"},
	{"loadgen.lag_ms_max", "ms"},
	{"trace.overhead_share", "share"},
	{"trace.unattributed_share", "share"},
	// Moved here from the end-to-end list: none can carry a bound. The
	// ten-run spread of total_p95_ms on traf20_steady reaches 0.27 on the
	// reference box, past the largest bound allowed; total_p99_ms needs 1000
	// samples for ten beyond it, which only adhoc_cold reaches in a run;
	// error_share is 0 on every healthy run.
	{"total_p95_ms", "ms"},
	{"total_p99_ms", "ms"},
	{"error_share", "share"},
}

// slice is one timed section of a run: one round's share of one phase.
type slice struct {
	// kind names the phase: "A" open-loop latency, "B" closed-loop
	// saturation, "C" closed loop giving both, "ref" and "T" the traced
	// pass's untraced reference and traced twin of the latency phase.
	kind   string
	open   bool
	d      time.Duration
	traced bool
	sched  []time.Duration // open slices only
}

// planSlices cuts seconds into cfg.rounds rounds and each round into slices.
// Every round holds one slice of each of the run's phases, so each phase
// samples the whole run rather than one contiguous stretch of it: a few
// seconds of a noisy neighbour on the host then touch every phase a little
// instead of spoiling one. Untraced: an open-loop workload spends 70 % of a
// round on its latency phase A and 30 % on the closed-loop saturation phase
// B; a closed-loop workload spends it all on one phase C that gives both.
// Traced: half on an untraced reference of the latency phase, half on the
// same phase traced — their p50s give the tracing overhead.
func planSlices(w *workload, cfg *config, seed uint64, seconds float64, traced bool) []slice {
	round := time.Duration(seconds * float64(time.Second) / float64(cfg.rounds))
	open := w.rate > 0
	var out []slice
	add := func(kind string, open bool, d time.Duration, traced bool) {
		sl := slice{kind: kind, open: open, d: d, traced: traced}
		if open && w.poisson {
			sl.sched = poissonSchedule(seed+uint64(len(out)), w.rate, d)
		} else if open {
			sl.sched = fixedSchedule(w.rate, d)
		}
		out = append(out, sl)
	}
	for r := 0; r < cfg.rounds; r++ {
		switch {
		case traced:
			add("ref", open, round/2, false)
			add("T", open, round/2, true)
		case open:
			add("A", true, round*7/10, false)
			add("B", false, round*3/10, false)
		default:
			add("C", false, round, false)
		}
	}
	return out
}

// sliceResult is what one slice left behind.
type sliceResult struct {
	slice
	recs       []opRecord
	backlog    []int
	wall       time.Duration
	epoch      time.Duration
	mem0, mem1 runtime.MemStats
}

// phaseResult gathers one phase's slices over the rounds.
type phaseResult struct {
	slices []*sliceResult
	// tl is the phase's guard tally, summed over its slices.
	tl *tally
}

// pooled returns every record of the phase.
func (p *phaseResult) pooled() []opRecord {
	var out []opRecord
	for _, sl := range p.slices {
		out = append(out, sl.recs...)
	}
	return out
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	// Invalid lists the validity guards the run broke; a run with any is not
	// a measurement.
	Invalid []string `json:"invalid,omitempty"`
	// Guards lists every guard evaluated, for the human-readable report.
	Guards []string `json:"-"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runWorkload sets the workload up, computes the oracle, runs the slices and
// derives the metrics. An untraced run sets up cfg.setupRepeats times, keeps
// the last and reports the median as setup_s; a traced run, which does not
// report setup_s, sets up once.
func runWorkload(w *workload, cfg *config, seed uint64, seconds float64, traced bool, log *spanLog) (*runResult, error) {
	slices := planSlices(w, cfg, seed, seconds, traced)
	nOpen := 0
	for _, sl := range slices {
		nOpen += len(sl.sched)
	}

	repeats := cfg.setupRepeats
	if traced {
		repeats = 1
	}
	var inst instance
	var setups []float64
	for i := 0; i < repeats; i++ {
		inst = nil
		runtime.GC()
		t0 := time.Now()
		in, err := w.setup(cfg, seed, nOpen)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		inst = in
	}
	if err := inst.oracle(); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	res := &runResult{Workload: w.name, Seed: seed, Seconds: seconds, Traced: traced, Metrics: map[string]float64{}}
	phases := map[string]*phaseResult{}
	// Open slices take the scheduled operations [0, nOpen) of the request
	// stream in order; closed slices take what follows.
	nextOpen, nextClosed := 0, nOpen
	runStart := time.Now()
	for _, sl := range slices {
		ph := phases[sl.kind]
		if ph == nil {
			ph = &phaseResult{tl: &tally{}}
			phases[sl.kind] = ph
		}
		inst.beginSlice(sl.traced, ph.tl)
		sr := &sliceResult{slice: sl}
		runtime.GC()
		runtime.ReadMemStats(&sr.mem0)
		sr.epoch = time.Since(runStart)
		t0 := time.Now()
		if sl.open {
			sr.recs, sr.backlog = openLoop(sl.sched, nextOpen, inst.do)
			nextOpen += len(sl.sched)
		} else {
			sr.recs = closedLoop(w.clients, sl.d, nextClosed, inst.limit(), inst.do)
			nextClosed += len(sr.recs)
		}
		sr.wall = time.Since(t0)
		runtime.ReadMemStats(&sr.mem1)
		ph.slices = append(ph.slices, sr)
		res.Attempted += len(sr.recs)
		for j := range sr.recs {
			if !sr.recs[j].ok {
				res.Failed++
			}
		}
	}
	// Live heap with the servers, caches and corpus still reachable; the
	// second collection empties what the first moved to sync.Pool victims.
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	st := inst.stats()

	mismatches, err := inst.finish()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.Failed += mismatches
	if res.Attempted == 0 {
		return nil, fmt.Errorf("%s: no operation completed", w.name)
	}

	if traced {
		checkGuards(res, w, cfg, phases["T"])
		layerMetrics(res, w, inst, phases["ref"], phases["T"], st, log)
		return res, nil
	}
	lat, sat := phases["C"], phases["C"]
	if lat == nil {
		lat, sat = phases["A"], phases["B"]
	}
	checkGuards(res, w, cfg, lat)
	res.Metrics["setup_s"] = median(setups)
	res.Metrics["heap_mb"] = float64(mem.HeapAlloc) / 1e6
	endToEnd(res, w, inst, lat, sat)
	return res, nil
}

// latencies returns the records' sorted latencies in ms.
func latencies(recs []opRecord) []float64 {
	out := make([]float64, len(recs))
	for i := range recs {
		out[i] = ms(recs[i].latency())
	}
	sort.Float64s(out)
	return out
}

func endToEnd(res *runResult, w *workload, inst instance, lat, sat *phaseResult) {
	m := res.Metrics
	recs := lat.pooled()
	m["total_p50_ms"] = quantile(latencies(recs), 0.50)
	within := 0
	for i := range recs {
		if r := &recs[i]; r.ok && ms(r.latency()) <= w.sloMS {
			within++
		}
	}
	m["slo_ok_share"] = share(int64(within), int64(len(recs)))

	// The saturation rate is the median over every block of every slice.
	var rates []float64
	for _, sl := range sat.slices {
		done := make([]float64, len(sl.recs))
		for i := range sl.recs {
			done[i] = sl.recs[i].done.Seconds() // closedLoop returns them in completion order
		}
		rates = append(rates, blockRates(done, w.block)...)
	}
	m["sat_qps"] = median(rates)

	m["cost_speedup_x"], m["recall_mean"], m["recall_min"] = inst.quality()
}

// checkGuards marks the run invalid instead of letting a silent number out:
// too few samples behind the reported tail, a load generator that ran late, a
// backlog still growing, or a workload that lost its defining contrast.
func checkGuards(res *runResult, w *workload, cfg *config, lat *phaseResult) {
	guard := func(name string, value float64, op string, limit float64) {
		ok := value >= limit
		if op == "<=" {
			ok = value <= limit
		}
		line := fmt.Sprintf("%s = %.4g, want %s %.4g", name, value, op, limit)
		res.Guards = append(res.Guards, line)
		if !ok {
			res.Invalid = append(res.Invalid, line)
		}
	}
	shares := lat.tl.shares()
	for _, c := range w.contrast {
		guard(c.metric, shares[c.metric], c.op, c.limit)
	}
	if cfg.quick {
		return // smoke sizes cannot carry the sample and lag guards
	}
	recs := lat.pooled()
	guard("samples beyond p95 of the latency phase", float64(samplesBeyond(len(recs), 0.95)), ">=", minBeyond)
	if w.rate > 0 {
		// The median, not the tail: a host stall makes one stretch of
		// dispatches late, a generator that cannot keep up makes most late.
		guard("loadgen.lag_ms_p50", quantile(lags(recs), 0.5), "<=", w.lagLimitMS)
		growing := 0
		for _, sl := range lat.slices {
			if backlogGrowing(sl.backlog) {
				growing++
			}
		}
		guard("open-loop slices that ended with the backlog still growing", float64(growing), "<=", float64(len(lat.slices)/2))
	}
}

// lags returns how late each dispatch ran behind its due time, sorted, in ms.
func lags(recs []opRecord) []float64 {
	out := make([]float64, len(recs))
	for i := range recs {
		out[i] = ms(recs[i].sent - recs[i].due)
	}
	sort.Float64s(out)
	return out
}

// layerMetrics derives the per-layer metrics from the traced phase t, pooled
// over its slices, with ref as the untraced reference of the same phase.
func layerMetrics(res *runResult, w *workload, inst instance, ref, t *phaseResult, st serve.Stats, log *spanLog) {
	m := res.Metrics
	for _, d := range perLayerMetrics {
		m[d.name] = 0
	}
	first := len(log.spans)
	for _, sl := range t.slices {
		for i := range sl.recs {
			if sl.recs[i].detail != nil {
				log.addOp(w.name, sl.epoch, &sl.recs[i])
			}
		}
	}
	recs := t.pooled()

	var parse, queue, service, self, search, scan, ppf, udf, sel []float64
	var call, sessionMS, streamSelf, scatter []float64
	var searchNS, serviceNS, ppfNS, udfNS, ppfLegNS, udfLegNS, ppIn, ppOut, udfIn, toUDF int64
	var costed, memoHits, memoEntries, sessions, planHits, hits, lookups, searches int64
	ops := 0
	for i := range recs {
		d := recs[i].detail
		if d == nil {
			continue
		}
		ops++
		if d.parse > 0 {
			parse = append(parse, float64(d.parse)/float64(time.Microsecond))
		}
		call = append(call, ms(d.call))
		var inSessions, opWall time.Duration
		for _, s := range d.sessions {
			sessions++
			if s.planCached {
				planHits++
			} else {
				searches++
				search = append(search, ms(s.search))
				searchNS += int64(s.search)
				costed += int64(s.costed)
				memoHits += int64(s.memoHits)
				memoEntries += int64(s.memoEntries)
			}
			queue = append(queue, ms(s.queueWait))
			service = append(service, ms(s.service))
			sessionMS = append(sessionMS, ms(s.queueWait+s.service))
			serviceNS += int64(s.service)
			inSessions += s.queueWait + s.service
			// byKind sums operator walls over the session's legs; sum is the
			// operators' share of the session's own wall (one leg's worth).
			var byKind [4]time.Duration
			var sum time.Duration
			legs := time.Duration(s.legs)
			fed := -1
			for _, op := range s.ops {
				sum += op.wall / legs
				switch op.kind {
				case kindScan:
					byKind[0] += op.wall
					if fed < 0 {
						fed = op.rowsOut
					}
				case kindPPFilter:
					byKind[1] += op.wall
					ppfNS += int64(op.wall)
					ppfLegNS += int64(op.wall / legs)
					ppIn += int64(op.rowsIn)
					ppOut += int64(op.rowsOut)
					hits += int64(op.hits)
					lookups += int64(op.hits + op.misses)
					fed = op.rowsOut
				case kindUDF:
					byKind[2] += op.wall
					udfNS += int64(op.wall)
					udfLegNS += int64(op.wall / legs)
					udfIn += int64(op.rowsIn)
				case kindSelect:
					byKind[3] += op.wall
				}
			}
			opWall += sum
			toUDF += int64(max(fed, 0))
			scan = append(scan, ms(byKind[0]))
			ppf = append(ppf, ms(byKind[1]))
			udf = append(udf, ms(byKind[2]))
			sel = append(sel, ms(byKind[3]))
			self = append(self, ms(s.service-sum-s.search))
		}
		switch d.root {
		case "stream.ingest":
			streamSelf = append(streamSelf, ms(d.call-inSessions))
		case "shard.do":
			scatter = append(scatter, ms(d.call-opWall))
		}
	}
	p := func(xs []float64, q float64) float64 {
		s := sortedCopy(xs)
		if q > 0.5 && !supported(len(s), q) {
			return 0
		}
		return quantile(s, q)
	}
	m["query.parse_us_p50"] = p(parse, 0.5)
	m["optimizer.search_ms_p50"] = p(search, 0.5)
	m["optimizer.search_ms_p95"] = p(search, 0.95)
	m["optimizer.search_share"] = share(searchNS, serviceNS)
	if searches > 0 {
		m["optimizer.candidates_costed_mean"] = float64(costed) / float64(searches)
	}
	m["optimizer.memo_hit_share"] = share(memoHits, memoHits+memoEntries)
	m["serve.queue_wait_ms_p50"] = p(queue, 0.5)
	m["serve.queue_wait_ms_p95"] = p(queue, 0.95)
	m["serve.service_ms_p50"] = p(service, 0.5)
	m["serve.service_ms_p95"] = p(service, 0.95)
	m["serve.self_ms_p50"] = p(self, 0.5)
	m["serve.plan_hit_share"] = share(planHits, sessions)
	m["serve.plan_entries"] = float64(st.PlanEntries)
	m["serve.score_hit_share"] = share(hits, lookups)
	m["serve.score_entries"] = float64(st.ScoreEntries)
	m["engine.scan_ms_p50"] = p(scan, 0.5)
	m["engine.ppfilter_ms_p50"] = p(ppf, 0.5)
	m["engine.udf_ms_p50"] = p(udf, 0.5)
	m["engine.select_ms_p50"] = p(sel, 0.5)
	m["engine.ppfilter_ns_per_row"] = share(ppfNS, ppIn)
	m["engine.udf_ns_per_row"] = share(udfNS, udfIn)
	m["engine.ppfilter_share"] = share(ppfLegNS, serviceNS)
	m["engine.udf_share"] = share(udfLegNS, serviceNS)
	m["engine.ppfilter_pass_share"] = share(ppOut, ppIn)
	if ops > 0 {
		m["serve.score_lookups_per_op"] = float64(lookups) / float64(ops)
		m["engine.rows_to_udf_per_op"] = float64(toUDF) / float64(ops)
	}
	switch {
	case len(scatter) > 0:
		m["shard.scatter_overhead_ms_p50"] = p(scatter, 0.5)
		m["shard.scatter_overhead_ms_p95"] = p(scatter, 0.95)
	case len(streamSelf) > 0:
		m["stream.ingest_ms_p50"] = p(call, 0.5)
		m["stream.ingest_ms_p95"] = p(call, 0.95)
		m["stream.session_ms_p50"] = p(sessionMS, 0.5)
		m["stream.self_ms_p50"] = p(streamSelf, 0.5)
		m["stream.deltas_per_segment"] = float64(sessions) / float64(ops)
		for _, sl := range t.slices {
			for _, b := range sl.backlog {
				m["stream.backlog_max_segments"] = max(m["stream.backlog_max_segments"], float64(b))
			}
		}
	}

	// Direct calls, made after the timed slices: the score kernels on blobs
	// they have not scored, and stream_heavy's segment append.
	end := t.slices[len(t.slices)-1]
	at := end.epoch + end.wall
	direct := func(name string, d time.Duration) {
		log.add(0, 0, w.name, name, at, at+d, nil)
		at += d
	}
	inst.layer(m, direct)

	var mallocs, alloc, pauseNS uint64
	var cycles uint32
	var offered, achieved []float64
	for _, sl := range t.slices {
		mallocs += sl.mem1.Mallocs - sl.mem0.Mallocs
		alloc += sl.mem1.TotalAlloc - sl.mem0.TotalAlloc
		cycles += sl.mem1.NumGC - sl.mem0.NumGC
		pauseNS += sl.mem1.PauseTotalNs - sl.mem0.PauseTotalNs
		if sl.open {
			offered = append(offered, float64(len(sl.sched))/sl.d.Seconds())
		}
		var last time.Duration
		for i := range sl.recs {
			last = max(last, sl.recs[i].done)
		}
		if last > 0 {
			achieved = append(achieved, float64(len(sl.recs))/last.Seconds())
		}
	}
	if n := float64(len(recs)); n > 0 {
		m["runtime.mallocs_per_op"] = float64(mallocs) / n
		m["runtime.alloc_kb_per_op"] = float64(alloc) / 1024 / n
	}
	m["runtime.gc_cycles"] = float64(cycles)
	m["runtime.gc_pause_ms_total"] = float64(pauseNS) / 1e6

	okN := 0
	for i := range recs {
		if recs[i].ok {
			okN++
		}
	}
	m["loadgen.sent"] = float64(len(recs))
	m["loadgen.ok"] = float64(okN)
	m["loadgen.failed"] = float64(len(recs) - okN)
	m["loadgen.offered_qps"] = median(offered)
	m["loadgen.achieved_qps"] = median(achieved)
	if w.rate > 0 {
		l := lags(recs)
		m["loadgen.lag_ms_p50"] = quantile(l, 0.5)
		m["loadgen.lag_ms_p95"] = quantile(l, 0.95)
		m["loadgen.lag_ms_max"] = quantile(l, 1)
	}

	tl := latencies(recs)
	if r50 := quantile(latencies(ref.pooled()), 0.5); r50 > 0 {
		m["trace.overhead_share"] = (quantile(tl, 0.5) - r50) / r50
	}
	var opSpans []span
	for _, s := range log.spans[first:] {
		if s.Session != 0 {
			opSpans = append(opSpans, s)
		}
	}
	m["trace.unattributed_share"] = unattributedShare(opSpans)
	for _, c := range []struct {
		name string
		q    float64
	}{{"total_p95_ms", 0.95}, {"total_p99_ms", 0.99}} {
		if supported(len(tl), c.q) {
			m[c.name] = quantile(tl, c.q)
		}
	}
	m["error_share"] = share(int64(res.Failed), int64(res.Attempted))
}

// scoreKernels times PP.ScoreBatch directly, per approach the fixture
// trained, over up to 16 batches of 250 of blobs, and reports the median
// batch.
func scoreKernels(m map[string]float64, f *fixture, blobs []blob.Blob, span func(string, time.Duration)) {
	const batches, rows = 16, 250
	blobs = blobs[:min(len(blobs), batches*rows)]
	dst := make([]float64, rows)
	names := map[string]string{"Raw+SVM": "svm", "PCA+KDE": "kde", "DNN": "dnn"}
	var mallocs, scored uint64
	for _, approach := range []string{"Raw+SVM", "PCA+KDE", "DNN"} {
		pp := f.pps[approach]
		if pp == nil {
			continue
		}
		var perRow []float64
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for at := 0; at+rows <= len(blobs); at += rows {
			t0 := time.Now()
			pp.ScoreBatch(blobs[at:at+rows], dst)
			d := time.Since(t0)
			span("core.score_batch."+names[approach], d)
			perRow = append(perRow, float64(d)/rows)
			scored += rows
		}
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		m["core.score_ns_per_row."+names[approach]] = median(perRow)
	}
	if scored > 0 {
		m["core.score_mallocs_per_row"] = float64(mallocs) / float64(scored)
	}
}
