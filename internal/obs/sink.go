package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// NopSink discards every record. A nil *Tracer is cheaper (no records are
// even assembled); NopSink exists for call sites that require a non-nil Sink.
type NopSink struct{}

// Span implements Sink.
func (NopSink) Span(Span) {}

// Event implements Sink.
func (NopSink) Event(Event) {}

// TextSink renders records as human-readable lines — the sink behind
// `ppquery -trace`. Chunk spans are indented under their operator.
type TextSink struct {
	mu sync.Mutex
	w  io.Writer
}

// NewTextSink returns a text sink over w.
func NewTextSink(w io.Writer) *TextSink { return &TextSink{w: w} }

// Span implements Sink.
func (s *TextSink) Span(sp Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	writeSpanLine(s.w, sp)
}

// Event implements Sink.
func (s *TextSink) Event(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	writeEventLine(s.w, ev)
}

// writeSpanLine renders one span as a trace line (shared by TextSink and the
// flight recorder's dumps). Chunk spans are indented under their operator.
func writeSpanLine(w io.Writer, sp Span) {
	indent := ""
	if sp.Kind == KindChunk {
		indent = "  "
	}
	thru := ""
	if rps := sp.RowsPerSec(); rps > 0 {
		thru = fmt.Sprintf(" thru=%.0frows/s", rps)
	}
	trace := ""
	if sp.Trace != "" {
		trace = " trace=" + sp.Trace
	}
	fmt.Fprintf(w, "%s[%s] %-40s wall=%.3fms cost=%.1fvms rows=%d→%d%s%s%s\n",
		indent, sp.Kind, sp.Name, float64(sp.WallNS)/1e6, sp.CostVMS,
		sp.RowsIn, sp.RowsOut, thru, renderAttrs(sp.Attrs), trace)
}

func writeEventLine(w io.Writer, ev Event) {
	trace := ""
	if ev.Trace != "" {
		trace = " trace=" + ev.Trace
	}
	fmt.Fprintf(w, "[event] %s%s%s\n", ev.Name, renderAttrs(ev.Attrs), trace)
}

func renderAttrs(attrs []Attr) string {
	out := ""
	for _, a := range attrs {
		out += fmt.Sprintf(" %s=%s", a.Key, a.Value)
	}
	return out
}

// JSONSink streams records as JSON Lines: one object per record with a
// "type" discriminator ("span", "event").
type JSONSink struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONSink returns a JSON-lines sink over w.
func NewJSONSink(w io.Writer) *JSONSink { return &JSONSink{enc: json.NewEncoder(w)} }

// Span implements Sink.
func (s *JSONSink) Span(sp Span) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.enc.Encode(struct {
		Type string `json:"type"`
		Span
	}{Type: "span", Span: sp})
}

// Event implements Sink.
func (s *JSONSink) Event(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.enc.Encode(struct {
		Type string `json:"type"`
		Event
	}{Type: "event", Event: ev})
}

// Collector accumulates records in memory for tests, reports and the bench
// runner's per-experiment trace summaries.
type Collector struct {
	mu     sync.Mutex
	spans  []Span
	events []Event
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// Span implements Sink.
func (c *Collector) Span(sp Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = append(c.spans, sp)
}

// Event implements Sink.
func (c *Collector) Event(ev Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, ev)
}

// Spans returns a copy of the collected spans.
func (c *Collector) Spans() []Span {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Span(nil), c.spans...)
}

// Events returns a copy of the collected events.
func (c *Collector) Events() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.events...)
}

// Reset discards everything collected so far (the bench runner reuses one
// collector across experiments).
func (c *Collector) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.spans = nil
	c.events = nil
}

// OpSummary aggregates the spans sharing a (kind, name) pair.
type OpSummary struct {
	Kind    string  `json:"kind"`
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	WallNS  int64   `json:"wall_ns"`
	CostVMS float64 `json:"cost_vms"`
	RowsIn  int     `json:"rows_in"`
	RowsOut int     `json:"rows_out"`
	// RowsPerSec is the aggregate wall-clock input throughput (total RowsIn
	// over total WallNS) — how fast the simulator itself chewed through this
	// operator's rows, across every span in the group.
	RowsPerSec float64 `json:"rows_per_sec,omitempty"`
}

// Summary is the aggregate view of a collector — what BENCH_pp.json embeds
// per experiment.
type Summary struct {
	Spans  int         `json:"spans"`
	Events int         `json:"events"`
	Ops    []OpSummary `json:"ops,omitempty"`
}

// Summary aggregates the collected records: spans grouped by (kind, name)
// sorted by descending virtual cost, and record counts.
func (c *Collector) Summary() Summary {
	c.mu.Lock()
	defer c.mu.Unlock()
	byKey := map[[2]string]*OpSummary{}
	var order [][2]string
	for _, sp := range c.spans {
		key := [2]string{sp.Kind, sp.Name}
		agg, ok := byKey[key]
		if !ok {
			agg = &OpSummary{Kind: sp.Kind, Name: sp.Name}
			byKey[key] = agg
			order = append(order, key)
		}
		agg.Count++
		agg.WallNS += sp.WallNS
		agg.CostVMS += sp.CostVMS
		agg.RowsIn += sp.RowsIn
		agg.RowsOut += sp.RowsOut
	}
	sum := Summary{Spans: len(c.spans), Events: len(c.events)}
	for _, key := range order {
		agg := byKey[key]
		if agg.RowsIn > 0 && agg.WallNS > 0 {
			agg.RowsPerSec = float64(agg.RowsIn) / (float64(agg.WallNS) / 1e9)
		}
		sum.Ops = append(sum.Ops, *agg)
	}
	sort.SliceStable(sum.Ops, func(a, b int) bool {
		if sum.Ops[a].CostVMS != sum.Ops[b].CostVMS {
			return sum.Ops[a].CostVMS > sum.Ops[b].CostVMS
		}
		return sum.Ops[a].Name < sum.Ops[b].Name
	})
	return sum
}
