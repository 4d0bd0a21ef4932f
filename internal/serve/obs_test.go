package serve

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"probpred/internal/metrics"
	"probpred/internal/obs"
	"probpred/internal/pplog"
	"probpred/internal/query"
)

// TestTraceJoinEndToEnd is the observability acceptance gate: replay the mini
// workload through a 2×2 sharded coordinator with metrics, span collection and
// the query log all attached, then join the serve_service_ns p99 exemplar's
// TraceID back to (a) a complete query-log record and (b) a span tree whose
// coordinator session, shard-leg sessions, run, operator and chunk spans all
// share that TraceID.
func TestTraceJoinEndToEnd(t *testing.T) {
	const nBlobs, shards, replicas = 60, 2, 2
	reg := metrics.New()
	col := obs.NewCollector()
	var logBuf bytes.Buffer
	qlog := pplog.NewWriter(&logBuf, 256, reg)

	c := newMiniCoordinator(t, nBlobs, shards, replicas, RouteRoundRobin, func(cfg *ShardedConfig) {
		cfg.Base.Exec.Workers = 4 // rows >= 2*workers per shard → chunk spans
		cfg.Base.Metrics = reg
		cfg.Base.Obs = obs.New(col)
		cfg.Base.QueryLog = qlog
	})
	resps, err := c.Replay(miniWorkload, 4)
	if err != nil {
		t.Fatal(err)
	}

	// Every session response carries a distinct trace ID.
	seen := map[string]bool{}
	for _, r := range resps {
		if r.TraceID == "" {
			t.Fatalf("response %s has no trace id", r.ID)
		}
		if seen[r.TraceID] {
			t.Fatalf("trace id %s reused across sessions", r.TraceID)
		}
		seen[r.TraceID] = true
	}

	if err := qlog.Close(); err != nil {
		t.Fatal(err)
	}
	if qlog.Drops() != 0 {
		t.Fatalf("query log dropped %d records", qlog.Drops())
	}
	records, err := pplog.Read(&logBuf)
	if err != nil {
		t.Fatal(err)
	}
	// One coordinator session record per query plus one leg record per shard.
	var sessions, legs int
	byTrace := map[string][]pplog.Record{}
	for _, rec := range records {
		if rec.TraceID == "" {
			t.Fatalf("untraced query-log record: %+v", rec)
		}
		byTrace[rec.TraceID] = append(byTrace[rec.TraceID], rec)
		if rec.IsSession() {
			sessions++
			if len(rec.Legs) != shards {
				t.Fatalf("session record %s has %d legs, want %d", rec.Session, len(rec.Legs), shards)
			}
			if rec.Policy != string(RouteRoundRobin) {
				t.Fatalf("session record policy %q, want %q", rec.Policy, RouteRoundRobin)
			}
		} else {
			legs++
			if rec.Leg.Shard < 0 || rec.Leg.Shard >= shards {
				t.Fatalf("leg record shard %d out of range", rec.Leg.Shard)
			}
		}
	}
	if sessions != len(miniWorkload) || legs != len(miniWorkload)*shards {
		t.Fatalf("query log has %d sessions / %d legs, want %d / %d",
			sessions, legs, len(miniWorkload), len(miniWorkload)*shards)
	}
	for trace := range seen {
		if len(byTrace[trace]) != 1+shards {
			t.Fatalf("trace %s has %d log records, want %d", trace, len(byTrace[trace]), 1+shards)
		}
	}

	// The p99 service-time exemplar must join back to a logged session.
	ex := reg.Histogram("serve_service_ns", "").QuantileExemplar(0.99)
	if ex == nil {
		t.Fatal("no p99 exemplar on serve_service_ns")
	}
	var joined *pplog.Record
	for i := range records {
		if records[i].TraceID == ex.TraceID && records[i].IsSession() {
			joined = &records[i]
			break
		}
	}
	if joined == nil {
		t.Fatalf("p99 exemplar trace %s has no session record in the query log", ex.TraceID)
	}
	if joined.PlanKey == "" || joined.ServiceNS <= 0 {
		t.Fatalf("joined record incomplete: %+v", joined)
	}

	// And to a complete span tree: coordinator session → shard-leg sessions →
	// run → operator → chunk, all on the exemplar's trace.
	spansByID := map[int64]obs.Span{}
	var coord *obs.Span
	legSessions := map[int64]obs.Span{}
	kinds := map[string]int{}
	for _, sp := range col.Spans() {
		if sp.Trace != ex.TraceID {
			continue
		}
		spansByID[sp.ID] = sp
		kinds[sp.Kind]++
		if sp.Kind == obs.KindSession {
			if hasAttr(sp, "scatter") {
				cp := sp
				coord = &cp
			} else if hasAttr(sp, "shard") {
				legSessions[sp.ID] = sp
			}
		}
	}
	if coord == nil {
		t.Fatalf("trace %s has no coordinator session span", ex.TraceID)
	}
	if len(legSessions) != shards {
		t.Fatalf("trace %s has %d shard-leg session spans, want %d", ex.TraceID, len(legSessions), shards)
	}
	for _, sp := range legSessions {
		if sp.Parent != coord.ID {
			t.Fatalf("leg session %q parented under %d, want coordinator %d", sp.Name, sp.Parent, coord.ID)
		}
	}
	for _, kind := range []string{obs.KindRun, obs.KindOperator, obs.KindChunk} {
		if kinds[kind] == 0 {
			t.Fatalf("trace %s has no %s span (kinds: %v)", ex.TraceID, kind, kinds)
		}
	}
	// Walking parents from any chunk span reaches the coordinator session.
	for _, sp := range spansByID {
		if sp.Kind != obs.KindChunk {
			continue
		}
		cur := sp
		for cur.Parent != 0 {
			next, ok := spansByID[cur.Parent]
			if !ok {
				t.Fatalf("chunk %q has dangling ancestor %d", sp.Name, cur.Parent)
			}
			cur = next
		}
		if cur.ID != coord.ID {
			t.Fatalf("chunk %q roots at span %d, want coordinator %d", sp.Name, cur.ID, coord.ID)
		}
		break
	}
}

func hasAttr(sp obs.Span, key string) bool {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return true
		}
	}
	return false
}

// TestObservabilityDoesNotChangeResults: served outputs must be byte-identical
// with tracing + query log + metrics on versus everything off, at Workers 1
// and 4, for both the unsharded server and the sharded coordinator. Run under
// -race this also exercises the instrumented paths for data races.
func TestObservabilityDoesNotChangeResults(t *testing.T) {
	const nBlobs = 60
	observe := func(cfg *Config) {
		cfg.Metrics = metrics.New()
		cfg.Obs = obs.New(obs.NewCollector())
		cfg.QueryLog = pplog.NewWriter(&bytes.Buffer{}, 256, cfg.Metrics)
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			plain := newMiniStack(t, nBlobs, func(cfg *Config) {
				cfg.Exec.Workers = workers
			})
			baseResps, err := plain.srv.Replay(miniWorkload, 4)
			if err != nil {
				t.Fatal(err)
			}
			baseline := renderResponses(baseResps)
			if !strings.Contains(baseline, "rows=") {
				t.Fatalf("degenerate baseline: %q", baseline)
			}

			traced := newMiniStack(t, nBlobs, func(cfg *Config) {
				cfg.Exec.Workers = workers
				observe(cfg)
			})
			tracedResps, err := traced.srv.Replay(miniWorkload, 4)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderResponses(tracedResps); got != baseline {
				t.Errorf("observability changed unsharded results\n got: %s\nwant: %s", got, baseline)
			}

			sharded := newMiniCoordinator(t, nBlobs, 2, 2, RouteRoundRobin, func(cfg *ShardedConfig) {
				cfg.Base.Exec.Workers = workers
				observe(&cfg.Base)
			})
			shardResps, err := sharded.Replay(miniWorkload, 4)
			if err != nil {
				t.Fatal(err)
			}
			if got := renderResponses(shardResps); got != baseline {
				t.Errorf("observability changed sharded results\n got: %s\nwant: %s", got, baseline)
			}
		})
	}
}

// TestErrorSessionsAreLogged: a failing session still produces a traced
// query-log record carrying the error — on a Server, and on a Coordinator
// whether a shard failed or the request was rejected before any leg ran.
func TestErrorSessionsAreLogged(t *testing.T) {
	errorRecords := func(t *testing.T, logBuf *bytes.Buffer, qlog *pplog.Writer, want int) []pplog.Record {
		t.Helper()
		if err := qlog.Close(); err != nil {
			t.Fatal(err)
		}
		records, err := pplog.Read(logBuf)
		if err != nil {
			t.Fatal(err)
		}
		if len(records) != want {
			t.Fatalf("%d records logged, want %d", len(records), want)
		}
		for _, rec := range records {
			if rec.TraceID == "" || rec.Error == "" || rec.Session != "bad" {
				t.Fatalf("error record incomplete: %+v", rec)
			}
		}
		return records
	}
	t.Run("server", func(t *testing.T) {
		var logBuf bytes.Buffer
		qlog := pplog.NewWriter(&logBuf, 8, nil)
		st := newMiniStack(t, 20, func(cfg *Config) {
			cfg.QueryLog = qlog
		})
		// An unknown column fails at execution time, after admission.
		_, err := st.srv.Do(Request{ID: "bad", Pred: query.MustParse("zz=1")})
		if err == nil {
			t.Fatal("expected the bad query to fail")
		}
		errorRecords(t, &logBuf, qlog, 1)
	})
	t.Run("sharded", func(t *testing.T) {
		var logBuf bytes.Buffer
		qlog := pplog.NewWriter(&logBuf, 8, nil)
		col := obs.NewCollector()
		c := newMiniCoordinator(t, 20, 2, 1, RouteRoundRobin, func(cfg *ShardedConfig) {
			cfg.Base.QueryLog = qlog
			cfg.Base.Obs = obs.New(col)
		})
		// Rejected by validation: no leg runs, and the session is still
		// counted, traced and logged.
		if _, err := c.Do(Request{ID: "bad", Pred: query.MustParse("t=SUV"), Accuracy: 1.5}); err == nil {
			t.Fatal("expected the out-of-range accuracy to be rejected")
		}
		if _, err := c.Do(Request{ID: "bad"}); err == nil {
			t.Fatal("expected the predicate-less request to be rejected")
		}
		if st := c.Stats(); st.ScatterSessions != 2 || st.ScatterFailures != 2 || st.Sessions != 0 {
			t.Errorf("scatter sessions/failures = %d/%d over %d legs, want 2/2 over 0", st.ScatterSessions, st.ScatterFailures, st.Sessions)
		}
		for _, r := range errorRecords(t, &logBuf, qlog, 2) {
			if r.Leg != nil || len(r.Legs) != 0 {
				t.Errorf("rejected request logged legs: %+v", r)
			}
		}
		spans := col.Spans()
		if len(spans) != 2 {
			t.Fatalf("%d spans, want one session span per rejected request", len(spans))
		}
		for _, sp := range spans {
			if sp.Kind != obs.KindSession || !strings.Contains(fmt.Sprint(sp.Attrs), "error") {
				t.Errorf("span %+v is not a session span carrying the error", sp)
			}
		}
	})
}

// TestServerAndCoordinatorLogTheSameSession: both front doors close a session
// through the one epilogue, so for one predicate over one corpus a Server's
// record and a Coordinator's session record state the same facts — they
// differ only in the scatter fields (Leg / Legs / Policy) and in timings.
func TestServerAndCoordinatorLogTheSameSession(t *testing.T) {
	const nBlobs = 60
	sessionRecord := func(qlog *pplog.Writer, logBuf *bytes.Buffer, d doer) pplog.Record {
		t.Helper()
		req := Request{
			ID: "Q", Pred: query.MustParse("t=SUV & c!=white"), Trace: "feedfacefeedface",
			Segment: &pplog.SegInfo{Index: 3, Version: 4},
		}
		for i := 0; i < 2; i++ { // the second session finds every plan cached
			if _, err := d.Do(req); err != nil {
				t.Fatal(err)
			}
		}
		if err := qlog.Close(); err != nil {
			t.Fatal(err)
		}
		records, err := pplog.Read(logBuf)
		if err != nil {
			t.Fatal(err)
		}
		var last pplog.Record
		for _, rec := range records {
			if rec.IsSession() {
				last = rec
			}
		}
		return last
	}

	var srvBuf, coordBuf bytes.Buffer
	srvLog, coordLog := pplog.NewWriter(&srvBuf, 64, nil), pplog.NewWriter(&coordBuf, 64, nil)
	st := newMiniStack(t, nBlobs, func(cfg *Config) { cfg.QueryLog = srvLog })
	c := newMiniCoordinator(t, nBlobs, 2, 1, RouteRoundRobin, func(cfg *ShardedConfig) { cfg.Base.QueryLog = coordLog })
	srvRec, coordRec := sessionRecord(srvLog, &srvBuf, st.srv), sessionRecord(coordLog, &coordBuf, c)

	if srvRec.Leg != nil || len(srvRec.Legs) != 0 || srvRec.Policy != "" {
		t.Errorf("server record carries scatter fields: %+v", srvRec)
	}
	if len(coordRec.Legs) != 2 || coordRec.Policy != string(RouteRoundRobin) {
		t.Errorf("coordinator record misses its scatter fields: %+v", coordRec)
	}
	if srvRec.PlanKey == "" || srvRec.Rows == 0 || srvRec.PPTested == 0 || srvRec.EstReduction == 0 || srvRec.Seg == nil {
		t.Fatalf("degenerate server record: %+v", srvRec)
	}
	for _, rec := range []*pplog.Record{&srvRec, &coordRec} {
		rec.TimeUnixNS, rec.QueueWaitNS, rec.ServiceNS = 0, 0, 0
		rec.Leg, rec.Legs, rec.Policy = nil, nil, ""
	}
	if !reflect.DeepEqual(srvRec, coordRec) {
		t.Errorf("records differ beyond scatter fields and timings\n server: %+v\n  coord: %+v", srvRec, coordRec)
	}
}
