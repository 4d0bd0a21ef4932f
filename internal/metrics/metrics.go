// Package metrics is the numeric half of the observability layer: a
// concurrency-safe registry of labeled counters, gauges and streaming
// log-bucketed histograms, cheap enough to live inside the batch scoring hot
// path. Where internal/obs records *what happened* (spans, events), this
// package records *how much and how fast*, continuously, as aggregates a
// monitoring system can scrape.
//
// The design mirrors obs's nil-tracer contract: a nil *Registry is valid, and
// every instrument obtained from it is a nil no-op handle, so instrumented
// code pays exactly one pointer check when metrics are disabled. Instruments
// are resolved by (name, labels) once — outside row loops — and then updated
// with lock-free atomics, so a live registry adds no per-row allocations.
//
// Exposition has one wire form, Prometheus text format with OpenMetrics
// exemplars (WriteProm, served at /metrics), plus direct Quantile/Value
// reads for in-process consumers such as ppquery's EXPLAIN ANALYZE.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key/value dimension of a metric series.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind discriminates the instrument families.
type Kind int

const (
	// KindCounter is a monotonically increasing sum.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a streaming log-bucketed distribution.
	KindHistogram
)

// String renders the kind as the Prometheus TYPE keyword.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// family groups every series sharing one metric name.
type family struct {
	name string
	help string
	kind Kind

	mu     sync.RWMutex
	series map[string]*series
	order  []string // insertion order of series keys, for stable exposition
}

// series is one (name, labels) instrument instance.
type series struct {
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// Registry holds the process's metric families. The zero value is not usable;
// call New. A nil *Registry is the disabled default: every method returns a
// nil instrument handle whose updates are no-ops.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{families: map[string]*family{}}
}

// family resolves (or creates) the family for name. The kind of the first
// registration wins; later mismatched registrations return nil (a no-op
// handle) rather than corrupting exposition — instrument kinds are a
// programming contract, not runtime input.
func (r *Registry) family(name, help string, kind Kind) *family {
	r.mu.RLock()
	f := r.families[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		f = r.families[name]
		if f == nil {
			f = &family{name: name, help: help, kind: kind, series: map[string]*series{}}
			r.families[name] = f
			r.order = append(r.order, name)
		}
		r.mu.Unlock()
	}
	if f.kind != kind {
		return nil
	}
	return f
}

// seriesFor resolves (or creates) the series for the label set.
func (f *family) seriesFor(labels []Label) *series {
	key := labelKey(labels)
	f.mu.RLock()
	s := f.series[key]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s = f.series[key]; s != nil {
		return s
	}
	s = &series{labels: sortedLabels(labels)}
	switch f.kind {
	case KindCounter:
		s.ctr = &Counter{}
	case KindGauge:
		s.gauge = &Gauge{}
	case KindHistogram:
		s.hist = newHistogram()
	}
	f.series[key] = s
	f.order = append(f.order, key)
	return s
}

// Counter returns the counter for (name, labels), creating the family and
// series on first use. On a nil registry it returns a nil (no-op) handle.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	f := r.family(name, help, KindCounter)
	if f == nil {
		return nil
	}
	return f.seriesFor(labels).ctr
}

// Gauge returns the gauge for (name, labels).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	f := r.family(name, help, KindGauge)
	if f == nil {
		return nil
	}
	return f.seriesFor(labels).gauge
}

// GaugeFunc registers the gauge for (name, labels) as fn, read at every
// scrape and Value call, so a number kept elsewhere is exposed without a
// second copy to keep in step. A later registration of the same series
// replaces fn. On a nil registry it does nothing.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if g := r.Gauge(name, help, labels...); g != nil {
		g.fn.Store(&fn)
	}
}

// Histogram returns the histogram for (name, labels).
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	f := r.family(name, help, KindHistogram)
	if f == nil {
		return nil
	}
	return f.seriesFor(labels).hist
}

// labelKey serializes a label set into a map key. Labels are sorted so the
// same set in any order resolves to the same series.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := sortedLabels(labels)
	var b strings.Builder
	for _, l := range ls {
		b.WriteString(l.Key)
		b.WriteByte('\x00')
		b.WriteString(l.Value)
		b.WriteByte('\x00')
	}
	return b.String()
}

func sortedLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Counter is a monotonically increasing float64. A nil *Counter is a no-op.
type Counter struct{ bits atomic.Uint64 }

// Add adds v (which must be >= 0; negative deltas are dropped to keep the
// counter monotone).
func (c *Counter) Add(v float64) {
	if c == nil || v <= 0 {
		return
	}
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current sum (0 on a nil handle).
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a settable float64, or a function read in its place (GaugeFunc),
// which Set and Add then leave unread. A nil *Gauge is a no-op.
type Gauge struct {
	bits atomic.Uint64
	fn   atomic.Pointer[func() float64]
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by v (may be negative).
func (g *Gauge) Add(v float64) {
	if g == nil || v == 0 {
		return
	}
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value (0 on a nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	if fn := g.fn.Load(); fn != nil {
		return (*fn)()
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram bucketing: log-scaled buckets covering [2^minExp, 2^maxExp) with
// bucketsPerOctave buckets per power of two, giving a worst-case relative
// quantile error of 2^(1/bucketsPerOctave)-1 ≈ 19%. The range spans
// sub-nanosecond virtual costs up to ~10^15 (wall nanoseconds of very long
// runs). Values at or below zero land in the underflow bucket (scores from
// margin classifiers can be negative; they still count toward count/sum).
const (
	bucketsPerOctave = 4
	minExp           = -30 // 2^-30 ≈ 1e-9
	maxExp           = 50  // 2^50  ≈ 1e15
	numBuckets       = (maxExp - minExp) * bucketsPerOctave
	// underIdx / overIdx are the open-ended end buckets.
	underIdx = 0
	overIdx  = numBuckets + 1
)

// Exemplar ties a concrete observation to the session trace that produced
// it, so a histogram bucket (e.g. the p99 of serve_service_ns) can be
// resolved back to one query-log record and span tree.
type Exemplar struct {
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id"`
}

// Histogram is a streaming log-bucketed distribution with lock-free Observe.
// A nil *Histogram is a no-op. Each bucket additionally retains the most
// recent traced observation as its exemplar (ObserveExemplar).
type Histogram struct {
	counts  [numBuckets + 2]atomic.Uint64
	total   atomic.Uint64
	sumBits atomic.Uint64
	// ex[i] is the most recent (value, trace) pair observed into bucket i;
	// nil until a traced observation lands there. Stored as immutable
	// pointers so scrapes read a consistent pair without locking.
	ex [numBuckets + 2]atomic.Pointer[Exemplar]
}

func newHistogram() *Histogram { return &Histogram{} }

// bucketIndex maps a value to its bucket.
func bucketIndex(v float64) int {
	if v <= 0 || math.IsNaN(v) {
		return underIdx
	}
	idx := int(math.Floor(math.Log2(v)*bucketsPerOctave)) - minExp*bucketsPerOctave + 1
	if idx < underIdx+1 {
		return underIdx
	}
	if idx > numBuckets {
		return overIdx
	}
	return idx
}

// bucketUpper returns the inclusive upper bound of bucket i (the Prometheus
// "le" value). The underflow bucket's bound is 2^minExp; the overflow
// bucket's is +Inf.
func bucketUpper(i int) float64 {
	if i <= underIdx {
		return math.Exp2(minExp)
	}
	if i >= overIdx {
		return math.Inf(1)
	}
	return math.Exp2(float64(minExp*bucketsPerOctave+i) / bucketsPerOctave)
}

// Observe records one value. It performs no allocation: one Log2, two atomic
// adds and one CAS loop for the sum.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.counts[bucketIndex(v)].Add(1)
	h.total.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// ObserveExemplar records one value like Observe and, when traceID is
// non-empty, retains (v, traceID) as the bucket's exemplar. The exemplar
// store is one atomic pointer swap, so the hot path stays allocation-bounded
// to the single Exemplar value.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	if h == nil {
		return
	}
	if traceID != "" {
		h.ex[bucketIndex(v)].Store(&Exemplar{Value: v, TraceID: traceID})
	}
	h.Observe(v)
}

// QuantileExemplar returns the exemplar attached to the bucket holding the
// q-quantile, falling back to the nearest populated lower (then higher)
// bucket — the p99 bucket may have been filled only by untraced
// observations. Returns nil when no exemplar exists or on a nil handle.
func (h *Histogram) QuantileExemplar(q float64) *Exemplar {
	if h == nil {
		return nil
	}
	total := h.total.Load()
	if total == 0 {
		return nil
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	target := overIdx
	var cum uint64
	for i := underIdx; i <= overIdx; i++ {
		cum += h.counts[i].Load()
		if cum >= rank {
			target = i
			break
		}
	}
	for i := target; i >= underIdx; i-- {
		if e := h.ex[i].Load(); e != nil {
			return e
		}
	}
	for i := target + 1; i <= overIdx; i++ {
		if e := h.ex[i].Load(); e != nil {
			return e
		}
	}
	return nil
}

// Count returns how many values were observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Quantile returns an estimate of the q-quantile (q in [0,1]) from the
// bucket counts: the upper bound of the bucket containing the target rank.
// The estimate is within one bucket width of the true value — a relative
// error of at most 2^(1/4)-1 ≈ 19% for values inside the bucketed range.
// Returns 0 when nothing was observed or on a nil handle.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := underIdx; i <= overIdx; i++ {
		cum += h.counts[i].Load()
		if cum >= rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(overIdx)
}

// bucketRow is one non-empty bucket of a snapshot: its inclusive upper
// bound, the cumulative count of observations at or below it, and the
// bucket's exemplar (nil when no traced observation landed there).
type bucketRow struct {
	upper    float64
	cumCount uint64
	ex       *Exemplar
}

// snapshotBuckets returns the non-empty buckets with cumulative counts, for
// Prometheus exposition. The returned counts are a consistent-enough view for
// monitoring (individual bucket loads are atomic; the set is not).
func (h *Histogram) snapshotBuckets() []bucketRow {
	var out []bucketRow
	var cum uint64
	for i := underIdx; i <= overIdx; i++ {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		cum += c
		out = append(out, bucketRow{upper: bucketUpper(i), cumCount: cum, ex: h.ex[i].Load()})
	}
	return out
}

// visit walks every family and series in registration order under read locks,
// for exposition and snapshots.
func (r *Registry) visit(fn func(f *family, labels []Label, s *series)) {
	if r == nil {
		return
	}
	r.mu.RLock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.RUnlock()
	for _, f := range fams {
		f.mu.RLock()
		keys := append([]string(nil), f.order...)
		srs := make([]*series, len(keys))
		for i, k := range keys {
			srs[i] = f.series[k]
		}
		f.mu.RUnlock()
		for _, s := range srs {
			fn(f, s.labels, s)
		}
	}
}

// sanitizeName maps a metric name to the Prometheus charset
// [a-zA-Z_:][a-zA-Z0-9_:]*. The repo's own names are chosen valid already;
// this guards facade users registering arbitrary names.
func sanitizeName(name string) string {
	var b strings.Builder
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if ok {
			b.WriteRune(c)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// formatValue renders a sample value the way Prometheus expects.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return fmt.Sprintf("%g", v)
}
