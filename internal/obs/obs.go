// Package obs is the engine-wide observability layer: a tracing substrate
// for the serving stack and the online loop. The paper's claims are
// measurements — speedup ratios, per-operator costs, accuracy under a
// budget — so the runtime that reproduces them must be able to report,
// machine-readably, where every virtual millisecond went.
//
// Two record types cover the system:
//
//   - Span: a completed unit of work (a plan run, one operator, an optimizer
//     search, a PP training) carrying both real wall-clock duration and
//     virtual cost.
//   - Event: a point-in-time state transition (watchdog trips, retrains,
//     probation verdicts).
//
// The engine and the optimizer take no tracer: their run, operator and
// optimize spans are derived from the ledgers they return (ledger.go).
// Numbers that aggregate (counters, histograms) go to internal/metrics.
//
// Records flow into a pluggable Sink. The default is no sink at all: a nil
// *Tracer is valid, and every method on it is a nil-check away from free, so
// instrumented code pays near-zero overhead unless a sink is attached.
package obs

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"
)

// Span kinds emitted by the instrumented subsystems.
const (
	// KindRun is one engine.Run invocation (the root span of a plan).
	KindRun = "run"
	// KindOperator is one operator's execution within a run.
	KindOperator = "operator"
	// KindOptimize is one optimizer plan search.
	KindOptimize = "optimize"
	// KindTrain is one PP (re)training.
	KindTrain = "train"
	// KindSession is one served query session (serve.Server.Do), or one leg
	// of a sharded session parented under it: plan-cache resolution plus
	// execution, with the run span parented under it.
	KindSession = "session"
)

// Attr is one key/value annotation on a span or event.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// TraceContext identifies the session a unit of work belongs to: the
// session-wide TraceID plus the SpanID to parent new spans under. It is
// passed by value to whatever derives or opens the session's spans; the
// zero value means "no session" and degrades every consumer to its
// pre-tracing behaviour.
type TraceContext struct {
	// TraceID is shared by every span and event of one served session,
	// across the server, its shard legs and the optimize, run and operator
	// spans derived for them.
	TraceID string
	// SpanID is the span to parent the next child span under (0 = root).
	SpanID int64
}

// Valid reports whether the context carries a session identity.
func (c TraceContext) Valid() bool { return c.TraceID != "" }

// traceHi is a per-process random prefix so trace IDs from concurrently
// written logs (replicas, reruns) do not collide; traceSeq makes IDs unique
// within the process. Both are independent of any Tracer so trace IDs exist
// even when tracing is disabled (exemplars and the query log still need
// them).
var (
	traceHi  = func() uint32 { var b [4]byte; _, _ = rand.Read(b[:]); return binary.LittleEndian.Uint32(b[:]) }()
	traceSeq atomic.Uint32
)

// NewTraceID returns a fresh 16-hex-char session trace ID. It never reads
// the clock and is safe for concurrent use.
func NewTraceID() string {
	return fmt.Sprintf("%08x%08x", traceHi, traceSeq.Add(1))
}

// Span is a completed unit of work. IDs are unique per tracer; Parent links
// operator spans to their run span.
type Span struct {
	ID     int64 `json:"id"`
	Parent int64 `json:"parent,omitempty"`
	// Trace is the session TraceID this span belongs to ("" = untraced).
	// BeginCtx sets it from a TraceContext and BeginChild inherits it, so
	// every span under one session root shares the ID.
	Trace string `json:"trace,omitempty"`
	Kind  string `json:"kind"`
	Name  string `json:"name"`
	// Start is the wall-clock start time.
	Start time.Time `json:"start"`
	// WallNS is the real elapsed time in nanoseconds.
	WallNS int64 `json:"wall_ns"`
	// CostVMS is the virtual cost charged to this unit, in virtual ms.
	CostVMS float64 `json:"cost_vms,omitempty"`
	// RowsIn / RowsOut record cardinalities where they apply.
	RowsIn  int    `json:"rows_in,omitempty"`
	RowsOut int    `json:"rows_out,omitempty"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// RowsPerSec returns the span's wall-clock input throughput (RowsIn over
// WallNS), or 0 when either is unknown. It measures the simulator's real
// speed — the batch scoring fast path's target — not the virtual cost model.
func (sp *Span) RowsPerSec() float64 {
	if sp.RowsIn == 0 || sp.WallNS <= 0 {
		return 0
	}
	return float64(sp.RowsIn) / (float64(sp.WallNS) / 1e9)
}

// SetAttr appends an annotation. It is a no-op on the zero Span (the value
// Begin returns when tracing is disabled), keeping disabled paths cheap.
func (sp *Span) SetAttr(key, value string) {
	if sp.ID == 0 {
		return
	}
	sp.Attrs = append(sp.Attrs, Attr{Key: key, Value: value})
}

// Event is a point-in-time occurrence (e.g. a watchdog trip).
type Event struct {
	Time time.Time `json:"time"`
	// Trace is the session TraceID the event belongs to ("" = untraced).
	Trace string `json:"trace,omitempty"`
	Name  string `json:"name"`
	Attrs []Attr `json:"attrs,omitempty"`
}

// Sink receives completed records. Implementations must be safe for
// concurrent use: independent plan runs may share a sink across goroutines.
type Sink interface {
	Span(sp Span)
	Event(ev Event)
}

// Tracer hands out span IDs and forwards records to its sink. A nil *Tracer
// is the no-op default: every method short-circuits, so instrumentation
// costs one pointer check when disabled.
type Tracer struct {
	sink Sink
	ids  atomic.Int64
}

// New returns a tracer over the sink; a nil sink yields a nil (disabled)
// tracer.
func New(sink Sink) *Tracer {
	if sink == nil {
		return nil
	}
	return &Tracer{sink: sink}
}

// Enabled reports whether records will reach a sink.
func (t *Tracer) Enabled() bool { return t != nil && t.sink != nil }

// Begin opens a span. On a disabled tracer it returns the zero Span without
// reading the clock; End on that zero value is a no-op.
func (t *Tracer) Begin(kind, name string) Span {
	if !t.Enabled() {
		return Span{}
	}
	return Span{ID: t.ids.Add(1), Kind: kind, Name: name, Start: time.Now()}
}

// BeginCtx opens a span inside a session: it carries the context's TraceID
// and is parented under the context's SpanID. A zero context makes it
// equivalent to Begin.
func (t *Tracer) BeginCtx(ctx TraceContext, kind, name string) Span {
	sp := t.Begin(kind, name)
	if sp.ID != 0 {
		sp.Trace = ctx.TraceID
		sp.Parent = ctx.SpanID
	}
	return sp
}

// BeginChild opens a span parented under another, inheriting its TraceID.
func (t *Tracer) BeginChild(parent *Span, kind, name string) Span {
	sp := t.Begin(kind, name)
	if sp.ID != 0 && parent != nil {
		sp.Parent = parent.ID
		sp.Trace = parent.Trace
	}
	return sp
}

// Context returns the TraceContext for parenting children under the span.
// On the zero Span (disabled tracing) it is the zero context; callers that
// must keep trace identity alive without a sink build the context from
// their own TraceID instead.
func (sp *Span) Context() TraceContext {
	return TraceContext{TraceID: sp.Trace, SpanID: sp.ID}
}

// End stamps the span's wall-clock duration and emits it. Spans opened while
// the tracer was disabled (zero ID) are dropped.
func (t *Tracer) End(sp *Span) {
	if !t.Enabled() || sp.ID == 0 {
		return
	}
	sp.WallNS = time.Since(sp.Start).Nanoseconds()
	t.sink.Span(*sp)
}

// EmitSpan forwards a caller-assembled span (used when the duration was
// measured elsewhere, e.g. a span derived from a ledger).
func (t *Tracer) EmitSpan(sp Span) {
	if !t.Enabled() || sp.ID == 0 {
		return
	}
	t.sink.Span(sp)
}

// Event emits a point-in-time record.
func (t *Tracer) Event(name string, attrs ...Attr) {
	if !t.Enabled() {
		return
	}
	t.sink.Event(Event{Time: time.Now(), Name: name, Attrs: attrs})
}

// EventCtx emits a point-in-time record tagged with the session's TraceID.
func (t *Tracer) EventCtx(ctx TraceContext, name string, attrs ...Attr) {
	if !t.Enabled() {
		return
	}
	t.sink.Event(Event{Time: time.Now(), Trace: ctx.TraceID, Name: name, Attrs: attrs})
}
