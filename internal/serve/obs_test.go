package serve

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"probpred/internal/obs"
	"probpred/internal/pplog"
	"probpred/internal/query"
)

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
