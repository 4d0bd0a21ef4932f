package pplog

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"probpred/internal/metrics"
	"probpred/internal/obs"
)

func TestWriterRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	reg := metrics.New()
	w := NewWriter(&buf, 8, reg)
	recs := []Record{
		{TraceID: "t1", Session: "q1", PlanKey: "k1", PlanCached: true, ServiceNS: 100, QueueWaitNS: 5},
		{TraceID: "t2", Session: "q2", Error: "boom"},
		{TraceID: "t3", Session: "q3", Policy: "round-robin", Legs: []Leg{{Shard: 0}, {Shard: 1, Replica: 1, Rows: 4}}},
	}
	for _, r := range recs {
		if !w.Log(r) {
			t.Fatalf("Log(%+v) dropped", r)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Written() != 3 || w.Drops() != 0 {
		t.Fatalf("written=%d drops=%d, want 3/0", w.Written(), w.Drops())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("read %d records, want 3", len(got))
	}
	if got[0].TraceID != "t1" || !got[0].PlanCached || got[0].TotalNS() != 105 {
		t.Fatalf("record 0 mismatch: %+v", got[0])
	}
	if len(got[2].Legs) != 2 || got[2].Legs[1].Replica != 1 || got[2].Legs[1].Rows != 4 || got[2].Policy != "round-robin" {
		t.Fatalf("record 2 legs mismatch: %+v", got[2])
	}
	if got[1].Error != "boom" {
		t.Fatalf("record 1 mismatch: %+v", got[1])
	}
	if v := reg.Counter("querylog_records_total", "").Value(); v != 3 {
		t.Fatalf("querylog_records_total = %v, want 3", v)
	}

	// Log after Close: counted as a drop, never a panic.
	if w.Log(Record{TraceID: "late"}) {
		t.Fatal("Log after Close succeeded")
	}
	if w.Drops() != 1 {
		t.Fatalf("drops after post-close Log = %d, want 1", w.Drops())
	}
	// Close is idempotent.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// blockingWriter blocks every Write until released — the stalled-sink stand-in
// for the saturation test.
type blockingWriter struct {
	release chan struct{}
	writes  int
}

func (b *blockingWriter) Write(p []byte) (int, error) {
	<-b.release
	b.writes++
	return len(p), nil
}

// TestWriterNonBlockingUnderSaturation proves Log never stalls the caller:
// with the sink wedged and the buffer full, a burst of Logs must return
// promptly, counting drops instead of blocking.
func TestWriterNonBlockingUnderSaturation(t *testing.T) {
	bw := &blockingWriter{release: make(chan struct{})}
	const buffer = 4
	w := NewWriter(bw, buffer, nil)

	const total = 500
	start := time.Now()
	accepted := 0
	for i := 0; i < total; i++ {
		if w.Log(Record{TraceID: "t", Session: "s"}) {
			accepted++
		}
	}
	elapsed := time.Since(start)
	// A wedged sink means at most buffer+1 records can be in flight
	// (channel capacity plus the one the goroutine holds in Write).
	if accepted > buffer+1 {
		t.Fatalf("accepted %d with a wedged sink, want <= %d", accepted, buffer+1)
	}
	if drops := w.Drops(); drops != uint64(total-accepted) {
		t.Fatalf("drops = %d, want %d (every unaccepted Log counted)", drops, total-accepted)
	}
	// 500 non-blocking sends are microseconds; a second means Log blocked.
	if elapsed > time.Second {
		t.Fatalf("burst of %d Logs took %v — Log blocked on the stalled sink", total, elapsed)
	}

	close(bw.release)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Written() != uint64(accepted) {
		t.Fatalf("written = %d, want %d after release", w.Written(), accepted)
	}
}

func TestWriterConcurrentLogAndClose(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 16, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w.Log(Record{TraceID: "t"})
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		w.Close()
	}()
	wg.Wait()
	if w.Written()+w.Drops() == 0 {
		t.Fatal("no records accounted for")
	}
}

func TestReadRejectsMalformedLine(t *testing.T) {
	in := "{\"trace_id\":\"t1\"}\n\nnot json\n"
	_, err := Read(strings.NewReader(in))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("err = %v, want line-3 parse error", err)
	}
}

func TestAnalyze(t *testing.T) {
	mkSession := func(trace string, serviceMS int64, cached bool, est, obsRed float64, legs []Leg) Record {
		return Record{
			TraceID: trace, Session: "s-" + trace, PlanKey: "k",
			PlanCached: cached, ServiceNS: serviceMS * 1e6,
			EstReduction: est, ObsReduction: obsRed, Legs: legs,
		}
	}
	records := []Record{
		mkSession("t1", 10, true, 0.9, 0.88, nil),
		mkSession("t2", 10, true, 0.9, 0.30, nil),                                                       // misestimated (gap 0.6)
		mkSession("t3", 10, false, 0, 0, []Leg{{Shard: 0, ServiceNS: 9e6}, {Shard: 1, ServiceNS: 1e6}}), // skewed 9x
		mkSession("t4", 500, true, 0, 0, []Leg{{Shard: 0, ServiceNS: 5e6}, {Shard: 1, ServiceNS: 4e6}}), // slow, not skewed
		{TraceID: "", Session: "untraced"},
	}
	spans := []obs.Span{
		{ID: 1, Trace: "t4", Kind: obs.KindSession, Name: "s-t4", WallNS: 5e8},
		{ID: 2, Parent: 1, Trace: "t4", Kind: obs.KindRun, Name: "plan", WallNS: 4e8},
		{ID: 3, Parent: 2, Trace: "t4", Kind: obs.KindOperator, Name: "Scan", WallNS: 1e8},
		{ID: 9, Trace: "other", Kind: obs.KindRun, Name: "unrelated"},
	}
	a := Analyze(records, spans, Options{SLOMS: 100, TopK: 2, Drops: 7})
	if a.Sessions != 5 {
		t.Fatalf("sessions=%d, want 5", a.Sessions)
	}
	if a.AllHaveTrace {
		t.Fatal("AllHaveTrace true despite untraced record")
	}
	if a.Drops != 7 {
		t.Fatalf("drops = %d, want 7", a.Drops)
	}
	// 4 of 5 sessions meet the 100ms SLO (t4 is 500ms).
	if a.SLOAttainment != 0.8 {
		t.Fatalf("SLO attainment = %v, want 0.8", a.SLOAttainment)
	}
	// 1 of 2 sessions with estimates misestimated.
	if a.MisestimateRate != 0.5 {
		t.Fatalf("misestimate rate = %v, want 0.5", a.MisestimateRate)
	}
	// 1 of 2 scattered sessions skewed.
	if a.ShardSkewRate != 0.5 {
		t.Fatalf("shard skew rate = %v, want 0.5", a.ShardSkewRate)
	}
	if len(a.TopSlowest) != 2 || a.TopSlowest[0].TraceID != "t4" {
		t.Fatalf("top slowest = %+v, want t4 first", a.TopSlowest)
	}
	top := a.TopSlowest[0]
	if top.SpanCount != 3 || len(top.Spans) != 3 {
		t.Fatalf("t4 span tree: count=%d lines=%d, want 3/3", top.SpanCount, len(top.Spans))
	}
	// Tree shape: run indented under session, operator under run.
	if !strings.HasPrefix(top.Spans[0], "[session]") ||
		!strings.HasPrefix(top.Spans[1], "  [run]") ||
		!strings.HasPrefix(top.Spans[2], "    [operator]") {
		t.Fatalf("span tree lines:\n%s", strings.Join(top.Spans, "\n"))
	}
}

func TestAnalyzeDerivesSLO(t *testing.T) {
	var records []Record
	for i := 0; i < 10; i++ {
		records = append(records, Record{TraceID: fmt.Sprintf("t%d", i), ServiceNS: 10e6})
	}
	a := Analyze(records, nil, Options{})
	if a.SLOMS != 200 { // 20x the 10ms median
		t.Fatalf("derived SLO = %v ms, want 200", a.SLOMS)
	}
	if a.SLOAttainment != 1 {
		t.Fatalf("attainment = %v, want 1", a.SLOAttainment)
	}
}

func TestReadSpansSkipsNonSpanLines(t *testing.T) {
	in := `--- text framing ---
{"type":"span","id":1,"trace":"t1","kind":"run","name":"plan"}
{"type":"event","name":"watchdog.trip"}
{"type":"span","id":2,"trace":"t1","kind":"operator","name":"Scan"}
garbage
`
	spans, err := ReadSpans(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 || spans[0].ID != 1 || spans[1].Kind != obs.KindOperator {
		t.Fatalf("spans = %+v", spans)
	}
}
