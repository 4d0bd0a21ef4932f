package obs

import (
	"strings"
	"testing"
)

// emitN pushes n innocuous operator spans through the tracer.
func emitN(tr *Tracer, n int) {
	for i := 0; i < n; i++ {
		sp := tr.Begin(KindOperator, "op")
		tr.End(&sp)
	}
}

func TestFlightRecorderBuffersWithoutTrigger(t *testing.T) {
	var out strings.Builder
	fr := NewFlightRecorder(8, &out)
	tr := New(fr)
	emitN(tr, 20)
	if out.Len() != 0 {
		t.Fatalf("recorder dumped without a trigger: %q", out.String())
	}
	recs := fr.Records()
	if len(recs) != 8 {
		t.Fatalf("ring holds %d records, want capacity 8", len(recs))
	}
	for _, r := range recs {
		if r.Span == nil || r.Span.Name != "op" {
			t.Fatalf("unexpected record %+v", r)
		}
	}
}

func TestFlightRecorderOldestFirst(t *testing.T) {
	fr := NewFlightRecorder(4, nil)
	tr := New(fr)
	names := []string{"a", "b", "c", "d", "e", "f"}
	for _, n := range names {
		sp := tr.Begin(KindOperator, n)
		tr.End(&sp)
	}
	recs := fr.Records()
	var got []string
	for _, r := range recs {
		got = append(got, r.Span.Name)
	}
	want := []string{"c", "d", "e", "f"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ring order = %v, want %v", got, want)
		}
	}
}

func TestFlightRecorderDumpsOnRunError(t *testing.T) {
	var out strings.Builder
	fr := NewFlightRecorder(16, &out)
	tr := New(fr)
	emitN(tr, 3)
	sp := tr.Begin(KindRun, "plan")
	sp.SetAttr("error", "boom")
	tr.End(&sp)
	if fr.Dumps() != 1 {
		t.Fatalf("dumps = %d, want 1", fr.Dumps())
	}
	text := out.String()
	if !strings.Contains(text, "flight recorder") {
		t.Fatalf("dump missing header: %q", text)
	}
	if !strings.Contains(text, "boom") {
		t.Fatalf("dump missing failing span: %q", text)
	}
	if len(fr.Records()) != 0 {
		t.Fatal("ring must be cleared after a dump")
	}
	// A healthy run afterwards must not dump again.
	ok := tr.Begin(KindRun, "plan")
	tr.End(&ok)
	if fr.Dumps() != 1 {
		t.Fatalf("healthy run dumped: %d", fr.Dumps())
	}
}

func TestFlightRecorderDumpsOnWatchdogTrip(t *testing.T) {
	var out strings.Builder
	fr := NewFlightRecorder(16, &out)
	tr := New(fr)
	tr.Event("watchdog.trip", Attr{Key: "clause", Value: "t=SUV"})
	if fr.Dumps() != 1 {
		t.Fatalf("dumps = %d, want 1", fr.Dumps())
	}
	if !strings.Contains(out.String(), "t=SUV") {
		t.Fatalf("dump missing trip event: %q", out.String())
	}

	// The one trigger set: a failed run, a watchdog trip and a failed shard
	// leg fire; a clean run and every other event do not.
	failed := Record{Span: &Span{Kind: KindRun, Attrs: []Attr{{Key: "error", Value: "x"}}}}
	for _, c := range []struct {
		name string
		r    Record
		want bool
	}{
		{"failed run", failed, true},
		{"watchdog.trip", Record{Event: &Event{Name: "watchdog.trip"}}, true},
		{"shard.fail", Record{Event: &Event{Name: "shard.fail"}}, true},
		{"clean run", Record{Span: &Span{Kind: KindRun}}, false},
		{"failed operator", Record{Span: &Span{Kind: KindOperator, Attrs: failed.Span.Attrs}}, false},
		{"watchdog.breach", Record{Event: &Event{Name: "watchdog.breach"}}, false},
		{"other event", Record{Event: &Event{Name: "my.event"}}, false},
	} {
		if got := triggers(c.r); got != c.want {
			t.Errorf("%s: triggers = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestFlightRecorderManualDump(t *testing.T) {
	fr := NewFlightRecorder(16, nil)
	tr := New(fr)
	emitN(tr, 2)
	var out strings.Builder
	fr.Dump(&out)
	if !strings.Contains(out.String(), "op") {
		t.Fatalf("manual dump missing records: %q", out.String())
	}
	if len(fr.Records()) != 0 {
		t.Fatal("manual dump must clear the ring")
	}
}

func TestMultiSink(t *testing.T) {
	a := NewCollector()
	b := NewCollector()
	tr := New(Multi(nil, a, nil, b))
	emitN(tr, 3)
	for i, c := range []*Collector{a, b} {
		if n := len(c.Spans()); n != 3 {
			t.Fatalf("sink %d saw %d spans, want 3", i, n)
		}
	}
	if s := Multi(); s == nil {
		t.Fatal("empty Multi must still be a usable sink")
	}
	one := NewCollector()
	if got := Multi(one, nil); got != Sink(one) {
		t.Fatal("single-sink Multi should return the sink itself")
	}
}
