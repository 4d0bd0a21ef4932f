package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestNilTracerIsSafe: a nil *Tracer is the documented default; every method
// must be a no-op rather than a panic, and Begin must not assemble a span.
func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	sp := tr.Begin(KindRun, "plan")
	if sp.ID != 0 || !sp.Start.IsZero() {
		t.Fatalf("disabled Begin assembled a span: %+v", sp)
	}
	sp.SetAttr("k", "v") // zero span: must not record
	if len(sp.Attrs) != 0 {
		t.Fatal("SetAttr recorded on a zero span")
	}
	child := tr.BeginChild(&sp, KindOperator, "op")
	if child.ID != 0 {
		t.Fatal("disabled BeginChild assembled a span")
	}
	tr.End(&sp)
	tr.EmitSpan(sp)
	tr.Event("watchdog.trip")
}

// TestNewNilSink: a nil sink yields a nil tracer, so New(nil) call sites get
// the no-op path without a special case.
func TestNewNilSink(t *testing.T) {
	if tr := New(nil); tr != nil {
		t.Fatal("New(nil) should return a nil tracer")
	}
	if tr := New(NopSink{}); !tr.Enabled() {
		t.Fatal("New(NopSink{}) should be enabled")
	}
}

func TestSpanParentage(t *testing.T) {
	col := NewCollector()
	tr := New(col)
	root := tr.Begin(KindRun, "plan")
	child := tr.BeginChild(&root, KindOperator, "Scan")
	tr.End(&child)
	tr.End(&root)
	spans := col.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	if spans[0].Parent != root.ID {
		t.Fatalf("child parent = %d, want %d", spans[0].Parent, root.ID)
	}
	if spans[0].ID == spans[1].ID {
		t.Fatal("span IDs must be unique")
	}
	if spans[1].WallNS < 0 {
		t.Fatalf("negative wall time %d", spans[1].WallNS)
	}
}

func TestCollectorSummary(t *testing.T) {
	col := NewCollector()
	tr := New(col)
	for i := 0; i < 3; i++ {
		sp := tr.Begin(KindOperator, "Cheap")
		sp.CostVMS = 1
		sp.RowsIn = 10
		sp.RowsOut = 5
		tr.End(&sp)
	}
	sp := tr.Begin(KindOperator, "Expensive")
	sp.CostVMS = 100
	tr.End(&sp)
	tr.Event("watchdog.trip")

	sum := col.Summary()
	if sum.Spans != 4 || sum.Events != 1 {
		t.Fatalf("spans=%d events=%d, want 4/1", sum.Spans, sum.Events)
	}
	if len(sum.Ops) != 2 {
		t.Fatalf("ops = %d, want 2", len(sum.Ops))
	}
	// Sorted by descending virtual cost.
	if sum.Ops[0].Name != "Expensive" || sum.Ops[1].Name != "Cheap" {
		t.Fatalf("op order = %s, %s", sum.Ops[0].Name, sum.Ops[1].Name)
	}
	cheap := sum.Ops[1]
	if cheap.Count != 3 || cheap.CostVMS != 3 || cheap.RowsIn != 30 || cheap.RowsOut != 15 {
		t.Fatalf("Cheap aggregate wrong: %+v", cheap)
	}

	col.Reset()
	if s := col.Summary(); s.Spans != 0 || s.Events != 0 {
		t.Fatalf("Reset left records: %+v", s)
	}
}

func TestRowsPerSec(t *testing.T) {
	sp := Span{RowsIn: 500, WallNS: int64(time.Second)}
	if got := sp.RowsPerSec(); got != 500 {
		t.Fatalf("RowsPerSec = %v, want 500", got)
	}
	for _, zero := range []Span{{RowsIn: 0, WallNS: 1}, {RowsIn: 10, WallNS: 0}} {
		if got := zero.RowsPerSec(); got != 0 {
			t.Fatalf("RowsPerSec on %+v = %v, want 0", zero, got)
		}
	}

	// The summary aggregates throughput over the group's total rows and wall
	// time, and the text sink surfaces it on spans that carry rows.
	col := NewCollector()
	tr := New(col)
	for i := 0; i < 2; i++ {
		sp := tr.Begin(KindOperator, "PP[f]")
		sp.RowsIn = 1000
		sp.WallNS = int64(time.Millisecond)
		tr.EmitSpan(sp)
	}
	sum := col.Summary()
	if len(sum.Ops) != 1 {
		t.Fatalf("ops = %d, want 1", len(sum.Ops))
	}
	if got := sum.Ops[0].RowsPerSec; got != 1e6 {
		t.Fatalf("summary RowsPerSec = %v, want 1e6", got)
	}

	var buf bytes.Buffer
	NewTextSink(&buf).Span(Span{Kind: KindOperator, Name: "PP[f]",
		RowsIn: 1000, WallNS: int64(time.Millisecond)})
	if !strings.Contains(buf.String(), "thru=1000000rows/s") {
		t.Fatalf("text sink missing throughput:\n%s", buf.String())
	}
}

func TestTextSink(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewTextSink(&buf))
	sp := tr.Begin(KindOperator, "Scan")
	sp.CostVMS = 12.5
	sp.RowsIn = 0
	sp.RowsOut = 100
	tr.End(&sp)
	chunk := tr.BeginChild(&sp, KindChunk, "U[0:50]")
	tr.End(&chunk)
	tr.Event("watchdog.trip", Attr{Key: "clause", Value: "t=SUV"})

	out := buf.String()
	for _, want := range []string{
		"[operator] Scan", "cost=12.5vms", "rows=0→100",
		"\n  [chunk] U[0:50]", // chunk spans indent under their operator
		"[event] watchdog.trip clause=t=SUV",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}

// TestJSONSink: every line is a standalone JSON object with a "type"
// discriminator.
func TestJSONSink(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewJSONSink(&buf))
	sp := tr.Begin(KindRun, "plan")
	sp.CostVMS = 7
	tr.End(&sp)
	tr.Event("online.train")

	var types []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("invalid JSON line %q: %v", sc.Text(), err)
		}
		typ, _ := rec["type"].(string)
		types = append(types, typ)
		switch typ {
		case "span":
			if rec["kind"] != KindRun || rec["cost_vms"] != 7.0 {
				t.Fatalf("span record wrong: %v", rec)
			}
		case "event":
			if rec["name"] != "online.train" {
				t.Fatalf("event record wrong: %v", rec)
			}
		default:
			t.Fatalf("unknown record type %q", typ)
		}
	}
	if len(types) != 2 {
		t.Fatalf("records = %v, want span/event", types)
	}
}

func TestRuntimeSnapshot(t *testing.T) {
	snap := TakeRuntimeSnapshot()
	if snap.GoVersion == "" || snap.GOOS == "" || snap.GOARCH == "" {
		t.Fatalf("missing version metadata: %+v", snap)
	}
	if snap.NumCPU < 1 || snap.GOMAXPROCS < 1 || snap.NumGoroutine < 1 {
		t.Fatalf("implausible CPU/goroutine counts: %+v", snap)
	}
	if snap.TotalAllocBytes == 0 {
		t.Fatal("total allocation cannot be zero in a running test")
	}
	if snap.SchedLatencyP50NS < 0 || snap.SchedLatencyP99NS < 0 ||
		snap.SchedLatencyP50NS > snap.SchedLatencyP99NS {
		t.Fatalf("scheduler latency quantiles out of order: p50=%v p99=%v",
			snap.SchedLatencyP50NS, snap.SchedLatencyP99NS)
	}
	// The snapshot must be JSON-encodable (it is embedded in BENCH_pp.json);
	// ±Inf histogram bounds would make Marshal fail here.
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot does not encode: %v", err)
	}
}
