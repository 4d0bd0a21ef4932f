package serve

import (
	"bytes"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"probpred/internal/engine"
	"probpred/internal/metrics"
	"probpred/internal/obs"
	"probpred/internal/pplog"
	"probpred/internal/query"
	"probpred/internal/testkit"
)

// TestErrorSessionsAreLogged: a failing session still produces a traced
// query-log record carrying the error — on a 1×1 server, and on a sharded
// one whether a shard failed or the request was rejected before any leg ran.
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
		reg := metrics.New()
		c := newMiniSharded(t, 20, 2, 1, func(cfg *ShardedConfig) {
			cfg.Base.QueryLog = qlog
			cfg.Base.Obs = obs.New(col)
			cfg.Base.Metrics = reg
		})
		// Rejected by validation: no leg runs, and the session is still
		// counted, traced and logged.
		if _, err := c.Do(Request{ID: "bad", Pred: query.MustParse("t=SUV"), Accuracy: 1.5}); err == nil {
			t.Fatal("expected the out-of-range accuracy to be rejected")
		}
		if _, err := c.Do(Request{ID: "bad"}); err == nil {
			t.Fatal("expected the predicate-less request to be rejected")
		}
		failures := reg.Counter("serve_session_errors_total", "").Value()
		if st := c.Stats(); st.Sessions != 2 || failures != 2 {
			t.Errorf("sessions/failures = %d/%v, want 2/2", st.Sessions, failures)
		}
		for _, rs := range c.ReplicaStats() {
			if rs[0].Sessions != 0 {
				t.Errorf("a rejected request ran a leg: %+v", c.ReplicaStats())
			}
		}
		for _, r := range errorRecords(t, &logBuf, qlog, 2) {
			if len(r.Legs) != 0 {
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

// TestNewIsTheOneByOneSharded: New over a corpus and NewSharded over the
// same corpus at one shard × one replica build the same server — for one
// predicate they serve equal responses and log equal records, timings aside,
// and neither routes: no Legs, no Policy, no leg span.
func TestNewIsTheOneByOneSharded(t *testing.T) {
	const nBlobs = 60
	type served struct {
		resp  *Response
		rec   pplog.Record
		spans []obs.Span
	}
	serveTwice := func(mk func(qlog *pplog.Writer, tr *obs.Tracer) *Server) served {
		t.Helper()
		var logBuf bytes.Buffer
		qlog, col := pplog.NewWriter(&logBuf, 64, nil), obs.NewCollector()
		srv := mk(qlog, obs.New(col))
		req := Request{
			ID: "Q", Pred: query.MustParse("t=SUV & c!=white"), Trace: "feedfacefeedface",
			Segment: &pplog.SegInfo{Index: 3, Version: 4},
		}
		var out served
		for i := 0; i < 2; i++ { // the second session finds its plan cached
			resp, err := srv.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			out.resp = resp
		}
		if err := qlog.Close(); err != nil {
			t.Fatal(err)
		}
		records, err := pplog.Read(&logBuf)
		if err != nil {
			t.Fatal(err)
		}
		if len(records) != 2 {
			t.Fatalf("%d records for 2 sessions, want one each", len(records))
		}
		out.rec, out.spans = records[1], col.Spans()
		return out
	}
	one := serveTwice(func(qlog *pplog.Writer, tr *obs.Tracer) *Server {
		return newMiniStack(t, nBlobs, func(cfg *Config) { cfg.QueryLog, cfg.Obs = qlog, tr }).srv
	})
	sharded := serveTwice(func(qlog *pplog.Writer, tr *obs.Tracer) *Server {
		return newMiniSharded(t, nBlobs, 1, 1, func(cfg *ShardedConfig) { cfg.Base.QueryLog, cfg.Base.Obs = qlog, tr })
	})

	if r := one.rec; r.PlanKey == "" || !r.PlanCached || r.Rows == 0 || r.PPTested == 0 || r.EstReduction == 0 || r.Seg == nil {
		t.Fatalf("degenerate record: %+v", r)
	}
	for _, s := range []*served{&one, &sharded} {
		if len(s.rec.Legs) != 0 {
			t.Errorf("a 1×1 server logged legs: %+v", s.rec)
		}
		for _, sp := range s.spans {
			if sp.Kind == obs.KindSession && sp.Parent != 0 {
				t.Errorf("a 1×1 server opened a leg span: %+v", sp)
			}
		}
		s.rec.TimeUnixNS, s.rec.QueueWaitNS, s.rec.ServiceNS = 0, 0, 0
	}
	if !reflect.DeepEqual(one.rec, sharded.rec) {
		t.Errorf("records differ beyond timings\n     New: %+v\n sharded: %+v", one.rec, sharded.rec)
	}
	if a, b := renderSession(one.resp), renderSession(sharded.resp); a != b {
		t.Errorf("responses differ beyond timings\n     New: %s\n sharded: %s", a, b)
	}
}

// renderSession renders everything a response states but its timings.
func renderSession(r *Response) string {
	ops := append([]engine.OpStats(nil), r.Result.PerOp...)
	for i := range ops {
		ops[i].WallNS = 0
	}
	d := r.Decision
	return fmt.Sprintf("%s %s key=%s cached=%v plan=%v/%s/%v/%v ops=%+v %s", r.ID, r.TraceID, r.PlanKey, r.PlanCached,
		d.Inject, d.Expr, d.Reduction, d.PlanCost, ops, testkit.RenderRows(r.Result.Rows))
}

// TestServeGaugesDescribeTheDeployment: whatever the shards × replicas, the
// serve gauges mirror the whole server's Stats — not the last replica to
// finish a leg — and each session is counted once.
func TestServeGaugesDescribeTheDeployment(t *testing.T) {
	for _, shape := range [][2]int{{2, 2}, {1, 1}} {
		t.Run(fmt.Sprintf("%dx%d", shape[0], shape[1]), func(t *testing.T) {
			reg := metrics.New()
			srv := newMiniSharded(t, 200, shape[0], shape[1], func(cfg *ShardedConfig) { cfg.Base.Metrics = reg })
			if _, err := srv.Replay(miniWorkload, 1); err != nil {
				t.Fatal(err)
			}
			st := srv.Stats()
			for name, want := range map[string]float64{
				"serve_plan_cache_entries":       float64(st.PlanEntries),
				"serve_plan_cache_invalidations": float64(st.PlanInvalidations),
				"serve_plan_cache_revalidations": float64(st.PlanRevalidations),
				"serve_score_cache_entries":      float64(st.ScoreEntries),
				"serve_score_cache_hits":         float64(st.ScoreHits),
				"serve_score_cache_misses":       float64(st.ScoreMisses),
			} {
				if got := reg.Gauge(name, "").Value(); got != want {
					t.Errorf("%s = %v, Stats says %v", name, got, want)
				}
			}
			if st.Sessions != uint64(len(miniWorkload)) {
				t.Errorf("Stats().Sessions = %d, want %d", st.Sessions, len(miniWorkload))
			}
			if got := reg.Counter("serve_sessions_total", "").Value(); got != float64(st.Sessions) {
				t.Errorf("serve_sessions_total = %v, want %d", got, st.Sessions)
			}
			if got := reg.Histogram("serve_service_ns", "").Count(); got != st.Sessions {
				t.Errorf("serve_service_ns counted %d sessions, want %d", got, st.Sessions)
			}
		})
	}
}

// TestEngineSeriesIndependentOfDistinctPredicates: the engine's metric
// series are labeled by operator kind, not by query text, so serving 20
// distinct predicates leaves the registry with exactly the series 2 did.
func TestEngineSeriesIndependentOfDistinctPredicates(t *testing.T) {
	le := regexp.MustCompile(`,?le="[^"]*"`)
	series := func(n int) map[string]bool {
		reg := metrics.New()
		st := newMiniStack(t, 400, func(cfg *Config) { cfg.Metrics = reg })
		for i := 0; i < n; i++ {
			if _, err := st.srv.Do(Request{Pred: query.MustParse(fmt.Sprintf("t=SUV & s>%d", 40+i))}); err != nil {
				t.Fatal(err)
			}
		}
		var b strings.Builder
		if err := reg.WriteProm(&b); err != nil {
			t.Fatal(err)
		}
		out := map[string]bool{}
		for _, line := range strings.Split(b.String(), "\n") {
			if !strings.HasPrefix(line, "engine_") {
				continue
			}
			id, _, _ := strings.Cut(line, " # {")    // drop any exemplar,
			id = id[:strings.LastIndexByte(id, ' ')] // then the value
			id = strings.Replace(le.ReplaceAllString(id, ""), "{}", "", 1)
			name, labels, _ := strings.Cut(id, "{")
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				name = strings.TrimSuffix(name, suffix)
			}
			out[name+"{"+labels] = true
		}
		return out
	}
	two, twenty := series(2), series(20)
	if len(two) != len(twenty) {
		t.Errorf("%d engine series after 2 distinct predicates, %d after 20:\n%v\n%v", len(two), len(twenty), two, twenty)
	}
	for _, op := range []string{`engine_op_rows_in_total{op="PP"}`, `engine_op_rows_in_total{op="σ"}`} {
		if !twenty[op] {
			t.Errorf("no %s series: %v", op, twenty)
		}
	}
}
