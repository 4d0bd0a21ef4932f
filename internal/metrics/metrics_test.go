package metrics

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "help")
	g := r.Gauge("g", "help")
	h := r.Histogram("h", "help")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	// All methods must be safe on nil receivers.
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	g.Set(4)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram state")
	}
}

func TestCounterAndGauge(t *testing.T) {
	r := New()
	c := r.Counter("requests_total", "Requests.", L("op", "scan"))
	c.Inc()
	c.Add(2.5)
	c.Add(-4) // counters must never go down; negative adds are dropped
	if got := c.Value(); got != 3.5 {
		t.Fatalf("counter = %v, want 3.5", got)
	}
	if again := r.Counter("requests_total", "Requests.", L("op", "scan")); again != c {
		t.Fatal("same name+labels must resolve to the same counter")
	}
	if other := r.Counter("requests_total", "Requests.", L("op", "filter")); other == c {
		t.Fatal("different labels must resolve to a different series")
	}

	g := r.Gauge("temp", "Temperature.")
	g.Set(40)
	g.Add(-15)
	if got := g.Value(); got != 25 {
		t.Fatalf("gauge = %v, want 25", got)
	}
}

func TestKindMismatchReturnsNil(t *testing.T) {
	r := New()
	if r.Counter("m", "h") == nil {
		t.Fatal("first registration failed")
	}
	if r.Gauge("m", "h") != nil {
		t.Fatal("re-registering a counter as a gauge must yield nil")
	}
	if r.Histogram("m", "h") != nil {
		t.Fatal("re-registering a counter as a histogram must yield nil")
	}
}

func TestLabelOrderIrrelevant(t *testing.T) {
	r := New()
	a := r.Counter("x", "h", L("a", "1"), L("b", "2"))
	b := r.Counter("x", "h", L("b", "2"), L("a", "1"))
	if a != b {
		t.Fatal("label order must not create distinct series")
	}
}

// TestHistogramQuantileErrorBound verifies the log-bucketing contract: with
// bucketsPerOctave buckets per power of two, Quantile returns the rank
// bucket's upper bound, so it can overestimate the true quantile by at most a
// factor of 2^(1/bucketsPerOctave) and never underestimate it.
func TestHistogramQuantileErrorBound(t *testing.T) {
	r := New()
	h := r.Histogram("lat", "h")
	rng := rand.New(rand.NewSource(7))
	vals := make([]float64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Span many octaves: 10^-3 .. 10^6.
		v := math.Pow(10, rng.Float64()*9-3)
		vals = append(vals, v)
		h.Observe(v)
	}
	factor := math.Pow(2, 1.0/float64(bucketsPerOctave))
	sorted := append([]float64(nil), vals...)
	sortFloats(sorted)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		truth := sorted[int(q*float64(len(sorted)-1))]
		got := h.Quantile(q)
		if got < truth/factor || got > truth*factor*1.001 {
			t.Fatalf("q%.2f = %v, true %v: outside ±%.3fx bound", q, got, truth, factor)
		}
	}
	if c := h.Count(); c != 20000 {
		t.Fatalf("count = %d", c)
	}
	wantSum := 0.0
	for _, v := range vals {
		wantSum += v
	}
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6*wantSum {
		t.Fatalf("sum = %v, want %v", got, wantSum)
	}
}

func sortFloats(v []float64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

func TestHistogramEdgeValues(t *testing.T) {
	r := New()
	h := r.Histogram("edge", "h")
	h.Observe(0)           // underflow bucket
	h.Observe(-5)          // underflow bucket
	h.Observe(math.NaN())  // underflow bucket (not representable)
	h.Observe(1e300)       // overflow bucket
	h.Observe(math.Inf(1)) // overflow bucket
	h.Observe(1)           // normal
	if c := h.Count(); c != 6 {
		t.Fatalf("count = %d, want 6", c)
	}
	// Quantile must stay finite and monotone even with under/overflow mass.
	if q := h.Quantile(0.01); math.IsNaN(q) {
		t.Fatal("low quantile NaN")
	}
	if q := h.Quantile(0.99); !math.IsInf(q, 1) && q < 1e300 {
		t.Fatalf("high quantile %v should land in overflow", q)
	}
}

// TestConcurrentAccess exercises the registry under -race: concurrent
// registration of the same and different series plus concurrent increments
// and observations.
func TestConcurrentAccess(t *testing.T) {
	r := New()
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("ops_total", "h", L("w", "shared")).Inc()
				r.Counter("ops_total", "h", L("w", strconv.Itoa(w))).Add(2)
				r.Gauge("depth", "h").Set(float64(i))
				r.Histogram("lat", "h", L("w", "shared")).Observe(float64(i%100) + 0.5)
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("ops_total", "h", L("w", "shared")).Value(); got != workers*perWorker {
		t.Fatalf("shared counter = %v, want %d", got, workers*perWorker)
	}
	for w := 0; w < workers; w++ {
		if got := r.Counter("ops_total", "h", L("w", strconv.Itoa(w))).Value(); got != 2*perWorker {
			t.Fatalf("worker %d counter = %v, want %d", w, got, 2*perWorker)
		}
	}
	h := r.Histogram("lat", "h", L("w", "shared"))
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
}

// promLine matches a Prometheus 0.0.4 sample line: name{labels} value.
var promLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9.e+-]+|\+Inf|-Inf|NaN)$`)

// TestPromExposition golden-checks that WriteProm emits parseable Prometheus
// text: every line is a comment or a sample, HELP/TYPE precede their family,
// histogram buckets are cumulative with a +Inf bucket equal to _count.
func TestPromExposition(t *testing.T) {
	r := New()
	r.Counter("runs_total", "Total runs.").Add(3)
	r.Counter("rows_total", "Rows with \"quotes\" and \\slashes\\.", L("op", "σ[a=\"x\"\nb]")).Add(7)
	r.Gauge("reduction", "Estimated reduction.").Set(0.85)
	h := r.Histogram("cost_vms", "Cost.", L("op", "scan"))
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	typed := map[string]string{}
	helped := map[string]bool{}
	samples := map[string][]float64{}
	var lastMeta string
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 {
				t.Fatalf("malformed HELP line: %q", line)
			}
			helped[parts[2]] = true
			lastMeta = parts[2]
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[parts[2]] = parts[3]
			lastMeta = parts[2]
			continue
		}
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable sample line: %q", line)
		}
		name := m[1]
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if base != lastMeta {
			t.Fatalf("sample %q not under its family's HELP/TYPE block (last meta %q)", name, lastMeta)
		}
		v, err := strconv.ParseFloat(strings.Replace(m[3], "+Inf", "Inf", 1), 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		samples[name] = append(samples[name], v)
		if m[2] != "" {
			inner := strings.Trim(m[2], "{}")
			for _, pair := range splitLabelPairs(inner) {
				if !regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`).MatchString(pair) {
					t.Fatalf("malformed label pair %q in %q", pair, line)
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for _, fam := range []string{"runs_total", "rows_total", "reduction", "cost_vms"} {
		if !helped[fam] {
			t.Fatalf("family %s missing HELP", fam)
		}
		if typed[fam] == "" {
			t.Fatalf("family %s missing TYPE", fam)
		}
	}
	if typed["runs_total"] != "counter" || typed["reduction"] != "gauge" || typed["cost_vms"] != "histogram" {
		t.Fatalf("wrong types: %v", typed)
	}

	// Histogram structure: cumulative non-decreasing buckets, +Inf == count.
	buckets := samples["cost_vms_bucket"]
	if len(buckets) == 0 {
		t.Fatal("no histogram buckets")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] < buckets[i-1] {
			t.Fatalf("bucket counts not cumulative: %v", buckets)
		}
	}
	count := samples["cost_vms_count"]
	if len(count) != 1 || count[0] != 100 {
		t.Fatalf("cost_vms_count = %v, want [100]", count)
	}
	if last := buckets[len(buckets)-1]; last != 100 {
		t.Fatalf("+Inf bucket = %v, want 100", last)
	}
	sum := samples["cost_vms_sum"]
	if len(sum) != 1 || sum[0] != 5050 {
		t.Fatalf("cost_vms_sum = %v, want [5050]", sum)
	}
}

// splitLabelPairs splits k1="v1",k2="v2" respecting escaped quotes.
func splitLabelPairs(s string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func TestSanitizeNameInExposition(t *testing.T) {
	r := New()
	r.Counter("weird-name.with spaces", "h").Inc()
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if !regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`).MatchString(name) {
			t.Fatalf("unsanitized metric name %q", name)
		}
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := New()
	h := r.Histogram("lat", "h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) + 0.5)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	r := New()
	c := r.Counter("ops", "h")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func ExampleRegistry() {
	r := New()
	r.Counter("runs_total", "Total runs.").Inc()
	var sb strings.Builder
	_ = r.WriteProm(&sb)
	fmt.Print(sb.String())
	// Output:
	// # HELP runs_total Total runs.
	// # TYPE runs_total counter
	// runs_total 1
}

// TestGaugeFunc: a function-backed gauge is read at every Value call and
// scrape, Set leaves it unread, a later registration of the series replaces
// the function, and a nil registry registers nothing.
func TestGaugeFunc(t *testing.T) {
	r := New()
	v := 3.0
	r.GaugeFunc("depth", "Live depth.", func() float64 { return v }, L("shard", "0"))
	g := r.Gauge("depth", "", L("shard", "0"))
	v = 5
	g.Set(9)
	if got := g.Value(); got != 5 {
		t.Fatalf("Value = %v, want the function's 5", got)
	}
	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	if want := "# HELP depth Live depth.\n# TYPE depth gauge\ndepth{shard=\"0\"} 5\n"; b.String() != want {
		t.Fatalf("exposition %q, want %q", b.String(), want)
	}
	r.GaugeFunc("depth", "Live depth.", func() float64 { return 7 }, L("shard", "0"))
	if got := g.Value(); got != 7 {
		t.Fatalf("Value after re-registration = %v, want 7", got)
	}
	var nilReg *Registry
	nilReg.GaugeFunc("depth", "", func() float64 { return 1 })
}
