package obs

import (
	"fmt"
	"io"
	"sync"
)

// Multi fans records out to several sinks — e.g. a text sink for -trace plus
// a flight recorder. Nil sinks are skipped; zero sinks yields a NopSink.
func Multi(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return NopSink{}
	case 1:
		return live[0]
	}
	return multiSink(live)
}

type multiSink []Sink

// Span implements Sink.
func (m multiSink) Span(sp Span) {
	for _, s := range m {
		s.Span(sp)
	}
}

// Event implements Sink.
func (m multiSink) Event(ev Event) {
	for _, s := range m {
		s.Event(ev)
	}
}

// Record is one entry of the flight recorder's ring: exactly one of Span
// and Event is set.
type Record struct {
	Span  *Span
	Event *Event
}

// writeTo renders the record as one trace line (the TextSink format).
func (r Record) writeTo(w io.Writer) {
	switch {
	case r.Span != nil:
		writeSpanLine(w, *r.Span)
	case r.Event != nil:
		writeEventLine(w, *r.Event)
	}
}

// FlightRecorder is a Sink that keeps the last N records in a fixed-size ring
// buffer and dumps them when something goes wrong — so post-mortems do not
// require a streaming sink to have been attached in advance. The trigger set
// is configurable via TriggerSpec/SetTrigger; the default
// (DefaultTriggerSpec) fires on a failed run span (kind "run" carrying an
// "error" attr), on a watchdog trip event, on a mid-query plan swap
// ("adapt.swap": the window leading up to a replan is exactly what a drift
// post-mortem needs), and on a failed shard leg ("shard.fail"); each trigger
// dumps the ring once to the configured writer, newest record last, then
// clears it so consecutive failures produce disjoint dumps.
type FlightRecorder struct {
	mu      sync.Mutex
	ring    []Record
	next    int
	full    bool
	w       io.Writer
	trigger func(Record) bool
	dumps   int
}

// TriggerSpec declares which records auto-dump the flight recorder's ring,
// replacing the previously hard-wired predicate. The zero spec never fires;
// DefaultTriggerSpec reproduces the historical default.
type TriggerSpec struct {
	// FailedRunSpans fires on a failed query run: a span of kind "run"
	// carrying an "error" attribute.
	FailedRunSpans bool
	// Events lists event names that fire a dump (e.g. "watchdog.trip").
	Events []string
}

// DefaultTriggerSpec is the default trigger set wired into
// NewFlightRecorder: a failed query run, a tripped accuracy watchdog, a
// mid-query plan swap, and a failed scatter-gather shard leg.
func DefaultTriggerSpec() TriggerSpec {
	return TriggerSpec{
		FailedRunSpans: true,
		Events:         []string{"watchdog.trip", "adapt.swap", "shard.fail"},
	}
}

// Trigger compiles the spec into an auto-dump predicate for SetTrigger.
func (ts TriggerSpec) Trigger() func(Record) bool {
	events := make(map[string]bool, len(ts.Events))
	for _, name := range ts.Events {
		events[name] = true
	}
	failedRuns := ts.FailedRunSpans
	return func(r Record) bool {
		if failedRuns && r.Span != nil && r.Span.Kind == KindRun {
			for _, a := range r.Span.Attrs {
				if a.Key == "error" {
					return true
				}
			}
		}
		return r.Event != nil && events[r.Event.Name]
	}
}

// DefaultTrigger is the auto-dump predicate wired into NewFlightRecorder —
// DefaultTriggerSpec compiled.
func DefaultTrigger(r Record) bool { return defaultTrigger(r) }

var defaultTrigger = DefaultTriggerSpec().Trigger()

// NewFlightRecorder returns a recorder holding the last capacity records
// (zero or negative selects 256) that auto-dumps to w on DefaultTrigger. A
// nil w disables auto-dumping; the ring still records for manual Dump calls.
func NewFlightRecorder(capacity int, w io.Writer) *FlightRecorder {
	if capacity <= 0 {
		capacity = 256
	}
	return &FlightRecorder{ring: make([]Record, capacity), w: w, trigger: DefaultTrigger}
}

// SetTrigger replaces the auto-dump predicate. A nil predicate disables
// auto-dumping.
func (f *FlightRecorder) SetTrigger(fn func(Record) bool) {
	f.mu.Lock()
	f.trigger = fn
	f.mu.Unlock()
}

// Span implements Sink.
func (f *FlightRecorder) Span(sp Span) { f.record(Record{Span: &sp}) }

// Event implements Sink.
func (f *FlightRecorder) Event(ev Event) { f.record(Record{Event: &ev}) }

func (f *FlightRecorder) record(r Record) {
	f.mu.Lock()
	f.ring[f.next] = r
	f.next++
	if f.next == len(f.ring) {
		f.next = 0
		f.full = true
	}
	fire := f.trigger != nil && f.w != nil && f.trigger(r)
	if fire {
		f.dumpLocked(f.w, describeTriggerLocked(r))
	}
	f.mu.Unlock()
}

// describeTriggerLocked renders what fired the auto-dump.
func describeTriggerLocked(r Record) string {
	switch {
	case r.Span != nil:
		return fmt.Sprintf("failed %s span %q", r.Span.Kind, r.Span.Name)
	case r.Event != nil:
		return fmt.Sprintf("event %s", r.Event.Name)
	}
	return "manual"
}

// Records returns the buffered records, oldest first.
func (f *FlightRecorder) Records() []Record {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.recordsLocked()
}

func (f *FlightRecorder) recordsLocked() []Record {
	var out []Record
	if f.full {
		out = append(out, f.ring[f.next:]...)
	}
	out = append(out, f.ring[:f.next]...)
	return out
}

// Dumps reports how many times the recorder auto-dumped.
func (f *FlightRecorder) Dumps() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dumps
}

// Dump writes the buffered records to w (oldest first) and clears the ring.
func (f *FlightRecorder) Dump(w io.Writer) {
	f.mu.Lock()
	f.dumpLocked(w, "manual")
	f.mu.Unlock()
}

// DumpJSON writes the buffered records to w as JSON Lines in the JSONSink
// format (one {"type": "span"|"event", ...} object per record,
// oldest first) without clearing the ring — the machine-readable dump the
// pplog analyzer joins with the query log.
func (f *FlightRecorder) DumpJSON(w io.Writer) {
	sink := NewJSONSink(w)
	for _, r := range f.Records() {
		switch {
		case r.Span != nil:
			sink.Span(*r.Span)
		case r.Event != nil:
			sink.Event(*r.Event)
		}
	}
}

func (f *FlightRecorder) dumpLocked(w io.Writer, why string) {
	recs := f.recordsLocked()
	fmt.Fprintf(w, "--- flight recorder: %d buffered record(s), trigger: %s ---\n", len(recs), why)
	for _, r := range recs {
		r.writeTo(w)
	}
	fmt.Fprintf(w, "--- end flight recorder dump ---\n")
	// Clear so back-to-back failures dump disjoint windows.
	clear(f.ring)
	f.next = 0
	f.full = false
	f.dumps++
}
