package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestNewTraceIDUniqueAndWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if len(id) != 16 {
			t.Fatalf("trace id %q has length %d, want 16", id, len(id))
		}
		for _, c := range id {
			if !strings.ContainsRune("0123456789abcdef", c) {
				t.Fatalf("trace id %q not lowercase hex", id)
			}
		}
		if seen[id] {
			t.Fatalf("duplicate trace id %q", id)
		}
		seen[id] = true
	}
}

func TestTraceContextPropagation(t *testing.T) {
	c := NewCollector()
	tr := New(c)

	ctx := TraceContext{TraceID: NewTraceID(), SpanID: 0}
	if !ctx.Valid() {
		t.Fatal("context with trace id reported invalid")
	}
	if (TraceContext{}).Valid() {
		t.Fatal("zero context reported valid")
	}

	root := tr.BeginCtx(ctx, KindSession, "q1")
	if root.Trace != ctx.TraceID || root.Parent != 0 {
		t.Fatalf("root span trace=%q parent=%d, want %q/0", root.Trace, root.Parent, ctx.TraceID)
	}
	child := tr.BeginChild(&root, KindRun, "plan")
	if child.Trace != ctx.TraceID || child.Parent != root.ID {
		t.Fatalf("child span trace=%q parent=%d, want %q/%d", child.Trace, child.Parent, ctx.TraceID, root.ID)
	}
	grand := tr.BeginChild(&child, KindOperator, "Scan")
	if grand.Trace != ctx.TraceID {
		t.Fatalf("grandchild lost the trace: %q", grand.Trace)
	}

	// Span.Context() hands the trace on to downstream BeginCtx callers.
	cctx := child.Context()
	if cctx.TraceID != ctx.TraceID || cctx.SpanID != child.ID {
		t.Fatalf("child.Context() = %+v", cctx)
	}

	tr.End(&grand)
	tr.End(&child)
	tr.End(&root)
	tr.EventCtx(cctx, "adapt.swap", Attr{Key: "k", Value: "v"})

	spans, events := c.Spans(), c.Events()
	if len(spans) != 3 {
		t.Fatalf("%d spans collected, want 3", len(spans))
	}
	for _, sp := range spans {
		if sp.Trace != ctx.TraceID {
			t.Fatalf("span %s lost trace: %q", sp.Name, sp.Trace)
		}
	}
	if len(events) != 1 || events[0].Trace != ctx.TraceID {
		t.Fatalf("event trace not propagated: %+v", events)
	}
}

func TestBeginCtxOnDisabledTracer(t *testing.T) {
	var tr *Tracer
	ctx := TraceContext{TraceID: "abc"}
	sp := tr.BeginCtx(ctx, KindSession, "q")
	if sp.ID != 0 || sp.Trace != "" {
		t.Fatalf("disabled tracer produced live span: %+v", sp)
	}
	// Context() of a dead span is zero — callers keep their own ctx instead.
	if sp.Context().Valid() {
		t.Fatal("dead span produced a valid context")
	}
	tr.EventCtx(ctx, "x") // must not panic
}

func TestTextSinkTraceSuffix(t *testing.T) {
	var buf bytes.Buffer
	tr := New(NewTextSink(&buf))
	sp := tr.BeginCtx(TraceContext{TraceID: "feedc0de00000001"}, KindRun, "plan")
	tr.End(&sp)
	tr.Event("plain")
	out := buf.String()
	if !strings.Contains(out, "trace=feedc0de00000001") {
		t.Fatalf("text line missing trace suffix:\n%s", out)
	}
	// Untraced records keep the legacy format (no dangling trace=).
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "plain") && strings.Contains(line, "trace=") {
			t.Fatalf("untraced event grew a trace suffix: %q", line)
		}
	}
}

func TestTriggerSpecCompile(t *testing.T) {
	spec := TriggerSpec{Events: []string{"my.event"}}
	fire := spec.Trigger()
	if !fire(Record{Event: &Event{Name: "my.event"}}) {
		t.Fatal("named event did not fire")
	}
	if fire(Record{Event: &Event{Name: "other"}}) {
		t.Fatal("unnamed event fired")
	}
	failed := Record{Span: &Span{Kind: KindRun, Attrs: []Attr{{Key: "error", Value: "x"}}}}
	if fire(failed) {
		t.Fatal("failed run fired with FailedRunSpans unset")
	}
	spec.FailedRunSpans = true
	if !spec.Trigger()(failed) {
		t.Fatal("failed run did not fire with FailedRunSpans set")
	}
	// The zero spec never fires; the default spec matches the documented set.
	if (TriggerSpec{}).Trigger()(failed) {
		t.Fatal("zero spec fired")
	}
	def := DefaultTriggerSpec().Trigger()
	for _, ev := range []string{"watchdog.trip", "adapt.swap", "shard.fail"} {
		if !def(Record{Event: &Event{Name: ev}}) {
			t.Fatalf("default spec ignores %s", ev)
		}
	}
	if !def(failed) {
		t.Fatal("default spec ignores failed runs")
	}
}

func TestFlightRecorderDumpJSON(t *testing.T) {
	f := NewFlightRecorder(8, nil)
	tr := New(f)
	sp := tr.BeginCtx(TraceContext{TraceID: "t1"}, KindRun, "plan")
	tr.End(&sp)
	tr.EventCtx(TraceContext{TraceID: "t1"}, "watchdog.trip")

	var buf bytes.Buffer
	f.DumpJSON(&buf)
	out := buf.String()
	if !strings.Contains(out, `"type":"span"`) || !strings.Contains(out, `"type":"event"`) {
		t.Fatalf("DumpJSON output missing records:\n%s", out)
	}
	if !strings.Contains(out, `"trace":"t1"`) {
		t.Fatalf("DumpJSON lost trace ids:\n%s", out)
	}
	// DumpJSON must not clear the ring (unlike Dump).
	if len(f.Records()) != 2 {
		t.Fatalf("DumpJSON cleared the ring: %d records left", len(f.Records()))
	}
}
