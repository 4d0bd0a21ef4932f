package bench

// Obs replays the TRAF20 workload through a sharded coordinator with the
// whole observability stack on — per-session tracing to a JSON span dump,
// histogram exemplars, structured query log — and then runs the pplog
// analyzer over the log joined with the span dump. It is the end-to-end
// proof that tail-latency forensics work: a serve_service_ns p99 exemplar's
// TraceID must resolve to a logged session and a span tree. TestScenarioGates
// requires every session traced, zero drops, zero errors and the p99
// exemplar join resolving on both sides.

import (
	"bytes"
	"fmt"

	"probpred/internal/data"
	"probpred/internal/engine"
	"probpred/internal/metrics"
	"probpred/internal/obs"
	"probpred/internal/pplog"
	"probpred/internal/serve"
)

// Obs runs the observability replay and the analyzer.
func Obs(cfg Config) (*Report, error) {
	const (
		accuracy    = 0.95
		concurrency = 4
		workers     = 2
		shards      = 2
		replicas    = 2
	)
	rounds := cfg.scale(3, 2)
	h, err := NewTrafficHarness(cfg)
	if err != nil {
		return nil, err
	}
	workload := serveWorkload(rounds)

	// Private registry and sinks: the analyzer joins exactly this run's
	// exemplars, records and spans, unpolluted by other experiments.
	reg := metrics.New()
	var spanBuf bytes.Buffer
	tracer := obs.New(obs.NewJSONSink(&spanBuf))
	var logBuf bytes.Buffer
	qlog := pplog.NewWriter(&logBuf, 0, reg)

	coord, err := serve.NewSharded(serve.ShardedConfig{
		Base: serve.Config{
			Optimizer:     h.Opt,
			Accuracy:      accuracy,
			Domains:       data.TrafficDomains(),
			MaxConcurrent: concurrency,
			Exec:          engine.Config{Workers: workers},
			Metrics:       reg,
			Obs:           tracer,
			QueryLog:      qlog,
		},
		Shards:   shards,
		Replicas: replicas,
		Corpus:   h.TestBlobs,
		Builder:  trafficBuilder{h},
	})
	if err != nil {
		return nil, err
	}
	if _, err := coord.Replay(workload, concurrency); err != nil {
		return nil, fmt.Errorf("bench: obs replay: %w", err)
	}
	drops := qlog.Drops()
	if err := qlog.Close(); err != nil {
		return nil, fmt.Errorf("bench: obs query log: %w", err)
	}

	records, err := pplog.Read(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("bench: obs query log parse: %w", err)
	}
	spans, err := pplog.ReadSpans(bytes.NewReader(spanBuf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("bench: obs span dump parse: %w", err)
	}
	analysis := pplog.Analyze(records, spans, pplog.Options{Drops: drops})

	// The join the gate checks: p99 service-time exemplar → query-log record
	// → span tree, all on one TraceID. The exemplar lives on the replica
	// servers' serve_service_ns histogram (legs carry the coordinator's
	// session TraceID, so it resolves to a coordinator session record).
	var exemplarTrace string
	var exemplarResolves bool
	var exemplarSpans int
	if ex := reg.Histogram("serve_service_ns", "").QuantileExemplar(0.99); ex != nil {
		exemplarTrace = ex.TraceID
		for i := range records {
			if records[i].TraceID == ex.TraceID {
				exemplarResolves = true
				break
			}
		}
		for _, sp := range spans {
			if sp.Trace == ex.TraceID {
				exemplarSpans++
			}
		}
	}

	rep := &Report{ID: "obs", Title: fmt.Sprintf(
		"Session tracing & query log: %d sessions over %d shards x %d replicas, full observability on",
		len(workload), shards, replicas)}
	rep.addf("sessions: %d (+%d leg records)   errors: %d   querylog drops: %d   all have trace: %v",
		analysis.Sessions, analysis.LegRecords, analysis.Errors, analysis.Drops, analysis.AllHaveTrace)
	rep.addf("slo: %.2fms   attainment: %.3f   plan-cache hit rate: %.3f", analysis.SLOMS, analysis.SLOAttainment, analysis.PlanCacheHitRate)
	rep.addf("misestimate rate: %.3f   shard-skew rate: %.3f", analysis.MisestimateRate, analysis.ShardSkewRate)
	rep.addf("p99 exemplar trace: %s   resolves: %v   spans: %d", exemplarTrace, exemplarResolves, exemplarSpans)
	for _, td := range analysis.TopSlowest {
		rep.addf("slow trace %s (%s): total %.2fms = queue %.2fms + service %.2fms, %d spans",
			td.TraceID, td.Session, td.TotalMS, td.QueueMS, td.ServiceMS, td.SpanCount)
	}
	rep.metric("sessions", float64(analysis.Sessions))
	rep.metric("errors", float64(analysis.Errors))
	rep.metric("all_have_trace", b2f(analysis.AllHaveTrace))
	rep.metric("querylog_drops", float64(analysis.Drops))
	rep.metric("slo_attainment", analysis.SLOAttainment)
	rep.metric("p99_exemplar_resolves", b2f(exemplarResolves))
	rep.metric("p99_exemplar_spans", float64(exemplarSpans))
	return rep, nil
}
