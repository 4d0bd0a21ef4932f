package stream

// Satellite battery: the fan-out. Ingest issues every standing query's
// session of a segment at once and the server's admission semaphore is the
// only bound, so the contracts pinned here are the ones concurrency could
// break: sessions really overlapping (and never past MaxConcurrent), and a
// deterministic failure — the first failing query in registration order,
// its predecessors' deltas, no session left running. That the deltas stay
// byte-identical at every width is TestIngestFanOutByteIdentical, an
// oracle row in golden_test.go.

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"probpred/internal/blob"
	"probpred/internal/engine"
	"probpred/internal/query"
	"probpred/internal/serve"
	"probpred/internal/testkit"
)

// gateBuilder holds the first parties plan assemblies at a barrier until all
// of them have arrived — which only happens if that many sessions of one
// segment are in flight at once — and records the most sessions ever inside
// BuildOver together. Plan assembly runs after admission, so the peak can
// never exceed MaxConcurrent.
type gateBuilder struct {
	testkit.Builder
	parties         int32
	arrived, inside atomic.Int32
	peak            atomic.Int32
	all             chan struct{}
	stuck           atomic.Bool
}

func (g *gateBuilder) BuildOver(blobs []blob.Blob, pred query.Pred, filter engine.BlobFilter) (engine.Plan, error) {
	n := g.inside.Add(1)
	defer g.inside.Add(-1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
	switch a := g.arrived.Add(1); {
	case a == g.parties:
		close(g.all)
	case a < g.parties:
		select {
		case <-g.all:
		case <-time.After(10 * time.Second): // fails the test; never the expected path
			g.stuck.Store(true)
		}
	}
	return g.Builder.BuildOver(blobs, pred, filter)
}

func TestIngestFanOutAdmission(t *testing.T) {
	for _, mc := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("max_concurrent=%d", mc), func(t *testing.T) {
			parties := min(mc, len(testkit.Standing))
			g := &gateBuilder{parties: int32(parties), all: make(chan struct{})}
			st := newMiniStack(t, func(c *serve.Config) { c.Corpus, c.MaxConcurrent = g, mc }, nil)
			st.register(t, testkit.Standing...)
			if _, err := st.ing.Ingest(testkit.Blobs(60, 21)); err != nil {
				t.Fatal(err)
			}
			if g.stuck.Load() {
				t.Fatalf("%d sessions of one segment were never in flight together", parties)
			}
			if p := g.peak.Load(); p != int32(parties) {
				t.Errorf("peak sessions in flight = %d, want %d (MaxConcurrent %d, %d standing queries)",
					p, parties, mc, len(testkit.Standing))
			}
		})
	}
}

// refusing is the kit's builder refusing the plans of the predicates in
// fail (keyed by their canonical text), each with its own error.
func refusing(fail map[string]error) testkit.Builder {
	canon := map[string]error{}
	for pred, err := range fail {
		canon[query.MustParse(pred).String()] = err
	}
	return testkit.Builder{Refuse: func(_ []blob.Blob, pred query.Pred) error { return canon[pred.String()] }}
}

// waitForGoroutines fails the test unless the goroutine count falls back to
// base: a session goroutine that called wg.Done is still counted until it
// returns, so the count is polled, not read once.
func waitForGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive Ingest (baseline %d)", runtime.NumGoroutine()-base, base)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestIngestFailureContract(t *testing.T) {
	// Queries 3 and 5 of 5 fail; 3 must win whichever finishes first.
	errSQ3, errSQ5 := errors.New("SQ3 plan refused"), errors.New("SQ5 plan refused")
	for _, mc := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("max_concurrent=%d", mc), func(t *testing.T) {
			b := refusing(map[string]error{
				testkit.Standing[2].Pred: errSQ3,
				testkit.Standing[4].Pred: errSQ5,
			})
			st := newMiniStack(t, func(c *serve.Config) { c.Corpus, c.MaxConcurrent = b, mc }, nil)
			st.register(t, testkit.Standing...)
			base := runtime.NumGoroutine()
			segs := testkit.Split(testkit.Blobs(200, 23), []int{50, 120})
			for i, seg := range segs {
				ds, err := st.ing.Ingest(seg)
				if !errors.Is(err, errSQ3) || errors.Is(err, errSQ5) {
					t.Fatalf("segment %d: err = %v, want SQ3's error alone", i, err)
				}
				if len(ds) != 2 || ds[0].Query != "SQ1" || ds[1].Query != "SQ2" {
					t.Fatalf("segment %d returned %d deltas, want exactly SQ1 and SQ2's", i, len(ds))
				}
				for _, d := range ds {
					if d.Resp == nil || d.Segment.Index != i {
						t.Fatalf("segment %d: delta %s is incomplete: %+v", i, d.Query, d)
					}
				}
			}
			if v := st.corpus.Version(); v != uint64(len(segs)) {
				t.Errorf("corpus version = %d after failed ingests, want %d (segments are still appended)", v, len(segs))
			}
			waitForGoroutines(t, base)
		})
	}
}

func TestFailedIngestCountsTheSegment(t *testing.T) {
	refused := errors.New("plan refused")
	b := refusing(map[string]error{"c=red": refused})
	st := newMiniStack(t, func(c *serve.Config) { c.Corpus = b }, nil)
	st.register(t, testkit.Query{ID: "SQ1", Pred: "t=SUV"}, testkit.Query{ID: "SQ2", Pred: "c=red"})
	rows := 0
	for _, seg := range testkit.Split(testkit.Blobs(100, 24), []int{40}) {
		deltas, err := st.ing.Ingest(seg)
		if !errors.Is(err, refused) {
			t.Fatalf("err = %v, want the refused plan", err)
		}
		if len(deltas) != 1 || deltas[0].Query != "SQ1" {
			t.Fatalf("a failed ingest returned %d deltas, want SQ1's", len(deltas))
		}
		rows += len(deltas[0].Resp.Result.Rows)
	}
	segments, deltas := st.ing.Stats()
	if v := st.corpus.Version(); segments != v || v != 2 {
		t.Errorf("Stats() counts %d segments, corpus version %d; want both 2", segments, v)
	}
	if deltas != 2 {
		t.Errorf("Stats() counts %d deltas, want 2 (SQ1's, before SQ2 failed)", deltas)
	}
	if n := st.corpus.Len(); n != 100 {
		t.Errorf("corpus holds %d blobs, want 100", n)
	}
	if rows <= 0 {
		t.Errorf("SQ1's deltas carry %d rows, want > 0", rows)
	}
}
