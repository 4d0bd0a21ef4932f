package metrics

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestObserveExemplarAndQuantileExemplar(t *testing.T) {
	r := New()
	h := r.Histogram("lat_ns", "")
	for i := 1; i <= 100; i++ {
		h.ObserveExemplar(float64(i)*1000, fmt.Sprintf("trace%03d", i))
	}
	ex := h.QuantileExemplar(0.99)
	if ex == nil {
		t.Fatal("no p99 exemplar")
	}
	// The p99 of 1k..100k is ~99k; the exemplar comes from the p99 bucket
	// (or the nearest non-empty neighbour), so it must be one of the top
	// observations, carrying the trace that produced it.
	if ex.Value < 90_000 {
		t.Fatalf("p99 exemplar value %v, want one of the top observations", ex.Value)
	}
	want := fmt.Sprintf("trace%03d", int(ex.Value/1000))
	if ex.TraceID != want {
		t.Fatalf("p99 exemplar trace %q, want %q (value %v)", ex.TraceID, want, ex.Value)
	}

	// An empty trace must not displace a stored exemplar.
	h2 := r.Histogram("lat2_ns", "")
	h2.ObserveExemplar(5000, "keepme")
	h2.ObserveExemplar(5000, "")
	if ex := h2.QuantileExemplar(0.5); ex == nil || ex.TraceID != "keepme" {
		t.Fatalf("exemplar after empty-trace observe: %+v, want keepme", ex)
	}

	// Nil handles and empty histograms are no-ops.
	var nilH *Histogram
	nilH.ObserveExemplar(1, "t")
	if nilH.QuantileExemplar(0.5) != nil {
		t.Fatal("nil histogram returned an exemplar")
	}
	if r.Histogram("empty_ns", "").QuantileExemplar(0.5) != nil {
		t.Fatal("empty histogram returned an exemplar")
	}
}

func TestPromExemplarSuffix(t *testing.T) {
	r := New()
	h := r.Histogram("svc_ns", "Service time.")
	h.ObserveExemplar(123, `tr"1`)
	h.Observe(125) // same bucket region, no trace: exemplar must survive

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `# {trace_id="tr\"1"} 123`) {
		t.Fatalf("exposition missing OpenMetrics exemplar suffix (escaped):\n%s", out)
	}
	// Exactly one bucket carries the exemplar.
	if n := strings.Count(out, "# {trace_id="); n != 1 {
		t.Fatalf("%d exemplar suffixes, want 1:\n%s", n, out)
	}
	// _sum/_count lines must not grow suffixes.
	for _, line := range strings.Split(out, "\n") {
		if (strings.HasPrefix(line, "svc_ns_sum") || strings.HasPrefix(line, "svc_ns_count")) &&
			strings.Contains(line, "#") {
			t.Fatalf("suffix on non-bucket line: %q", line)
		}
	}
}

// TestPromEscapingGolden locks the 0.0.4 text-format escaping byte-for-byte:
// backslash, double quote and newline in label values, backslash and newline
// in HELP.
func TestPromEscapingGolden(t *testing.T) {
	r := New()
	r.Counter("esc_total", "Help with \\ backslash\nand newline",
		L("op", "a\\b\"c\nd"), L("plain", "σ[x=1]")).Add(3)
	r.Gauge("esc_gauge", "", L("q", `say "hi"`)).Set(2.5)

	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := "# HELP esc_total Help with \\\\ backslash\\nand newline\n" +
		"# TYPE esc_total counter\n" +
		"esc_total{op=\"a\\\\b\\\"c\\nd\",plain=\"σ[x=1]\"} 3\n" +
		"# TYPE esc_gauge gauge\n" +
		"esc_gauge{q=\"say \\\"hi\\\"\"} 2.5\n"
	if got != want {
		t.Fatalf("escaping golden mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestConcurrentScrapesDuringExemplarWrites drives histogram + exemplar
// writes from several goroutines while other goroutines scrape Prometheus
// text and read p99 exemplars — the data-race proof for the /metrics
// endpoint (run under -race in CI).
func TestConcurrentScrapesDuringExemplarWrites(t *testing.T) {
	r := New()
	const writers, scrapes = 4, 25
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				i++
				r.Histogram("scrape_ns", "h", L("w", fmt.Sprintf("%d", w))).
					ObserveExemplar(float64(i%1000+1), fmt.Sprintf("t%d-%d", w, i))
				r.Counter("scrape_total", "c").Inc()
			}
		}(w)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < scrapes; i++ {
				var sb strings.Builder
				if err := r.WriteProm(&sb); err != nil {
					t.Errorf("WriteProm: %v", err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < scrapes; i++ {
			for w := 0; w < writers; w++ {
				if e := r.Histogram("scrape_ns", "h", L("w", fmt.Sprintf("%d", w))).QuantileExemplar(0.99); e != nil {
					_ = e.TraceID
				}
			}
		}
	}()
	<-done
	close(stop)
	wg.Wait()
}
