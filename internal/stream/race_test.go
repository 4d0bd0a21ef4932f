package stream

// Satellite battery: concurrency. Segment appends race standing-query
// evaluation, batch backfills, corpus snapshots and — with an online system
// wired in — watchdog trips and incremental retraining. Run with -race; the
// assertions themselves check consistency (every batch result is exactly the
// ground truth of the corpus version it served), the race detector checks
// for torn reads.

import (
	"fmt"
	"sync"
	"testing"

	"probpred/internal/blob"
	"probpred/internal/core"
	"probpred/internal/engine"
	"probpred/internal/mathx"
	"probpred/internal/obs"
	"probpred/internal/online"
	"probpred/internal/optimizer"
	"probpred/internal/query"
	"probpred/internal/serve"
	"probpred/internal/testkit"
)

func TestAppendRacesBatchQueries(t *testing.T) {
	st := newMiniStack(t, 4, nil, nil)
	st.register(t, testkit.Query{ID: "SQ1", Pred: "t=SUV"})
	const segSize, nSegs = 15, 20
	all := testkit.Blobs(segSize*nSegs, 17)
	// Ground-truth SUV count per corpus version (prefix of v segments); the
	// exact PP retains every positive, so a batch at version v must return
	// exactly truthAt[v] rows.
	truthAt := make([]int, nSegs+1)
	cnt := 0
	for i, b := range all {
		if testkit.Types[int(b.Dense[testkit.FType])] == "SUV" {
			cnt++
		}
		if (i+1)%segSize == 0 {
			truthAt[(i+1)/segSize] = cnt
		}
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := st.ing.BatchQuery("SQ1")
				if err != nil {
					errs <- err
					return
				}
				var v int
				if _, err := fmt.Sscanf(resp.ID, "SQ1#batch@v%d", &v); err != nil {
					errs <- fmt.Errorf("unparsable batch ID %q: %v", resp.ID, err)
					return
				}
				if got := len(resp.Result.Rows); got != truthAt[v] {
					errs <- fmt.Errorf("batch at v%d returned %d rows, want %d", v, got, truthAt[v])
					return
				}
				_ = st.corpus.Segments()
				_, _ = st.corpus.Snapshot()
				_ = st.corpus.Len()
			}
		}()
	}
	for i := 0; i < nSegs; i++ {
		if _, err := st.ing.Ingest(all[i*segSize : (i+1)*segSize]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if v := st.corpus.Version(); v != nSegs {
		t.Errorf("final version = %d, want %d", v, nSegs)
	}
}

// --- drift fixture: blobs whose ground truth inverts mid-stream ---

// A drift blob has two features: x0 ∈ [0,1) and a regime bit. Ground-truth
// speed is 80·x0 in regime 0 and 80·(1−x0) in regime 1 — so a PP trained
// pre-drift is exactly anti-correlated with post-drift truth, the worst-case
// drift the watchdog exists for.
func driftBlobs(n int, seed uint64, startID int, inverted bool) []blob.Blob {
	rng := mathx.NewRNG(seed)
	out := make([]blob.Blob, n)
	reg := 0.0
	if inverted {
		reg = 1
	}
	for i := range out {
		out[i] = blob.FromDense(startID+i, mathx.Vec{rng.Float64(), reg})
	}
	return out
}

func driftLookup(b blob.Blob) query.Lookup {
	return func(col string) (query.Value, bool) {
		if col != "s" {
			return query.Value{}, false
		}
		x := b.Dense[0]
		if b.Dense[1] != 0 {
			x = 1 - x
		}
		return query.Number(80 * x), true
	}
}

type driftUDF struct{ cost float64 }

func (u driftUDF) Name() string  { return "driftUDF" }
func (u driftUDF) Cost() float64 { return u.cost }
func (u driftUDF) Apply(b engine.Batch) error {
	vals := b.Column("s")
	for i := range vals {
		vals[i], _ = driftLookup(b.Blob(i))("s")
	}
	return nil
}

// newDriftStack wires the full online streaming loop: the server plans over
// the online system's corpus (empty until the stream trains it), and the
// ingestor audits accuracy and feeds labels back per segment. tr receives
// the online system's spans and events (nil disables).
func newDriftStack(t *testing.T, workers int, tr *obs.Tracer) (*miniStack, *online.System) {
	t.Helper()
	sys, err := online.New(online.Config{
		Clauses:      []string{"s>40"},
		MinLabels:    150,
		RetrainEvery: 100000, // only watchdog-triggered retraining
		BufferCap:    200,
		Train:        core.TrainConfig{Approach: "Raw+SVM", Seed: 42},
		WarmStart:    true,
		Seed:         7,
		Watchdog:     online.WatchdogConfig{K: 3, Margin: 0.15, FreshLabels: 150},
		Obs:          tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := newMiniStack(t, workers, func(c *serve.Config) {
		c.Optimizer, c.Corpus, c.Accuracy, c.Domains = optimizer.New(sys.Corpus()), testkit.Builder{UDF: driftUDF{cost: 40}}, 0.9, nil
	}, func(c *Config) { c.Online, c.Lookup, c.Seed = sys, driftLookup, 5 })
	return st, sys
}

func TestWatchdogTripAndRetrainRaceClean(t *testing.T) {
	st, sys := newDriftStack(t, 4, nil)
	st.register(t, testkit.Query{ID: "D1", Pred: "s>40", Accuracy: 0.9})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := st.ing.BatchQuery("D1"); err != nil {
					errs <- err
					return
				}
				_ = st.srv.Stats()
				_ = sys.Breaker("s>40")
			}
		}()
	}

	const segSize = 40
	seg := 0
	ingest := func(n int, inverted bool) {
		for i := 0; i < n; i++ {
			blobs := driftBlobs(segSize, uint64(1000+seg), seg*segSize, inverted)
			if _, err := st.ing.Ingest(blobs); err != nil {
				t.Fatal(err)
			}
			seg++
		}
	}
	ingest(15, false) // train + serve healthy
	ingest(20, true)  // label distribution inverts: trip, fresh labels, retrain

	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if sys.Trainings < 2 {
		t.Errorf("Trainings = %d, want at least initial training + post-trip retraining", sys.Trainings)
	}
	if sys.Trips < 1 {
		t.Errorf("Trips = %d, want at least 1 (anti-correlated drift must trip the watchdog)", sys.Trips)
	}
}

// TestWatchdogEventsCarryDeltaTrace: the watchdog's breach, trip and close
// events from a standing query's accuracy audit carry the trace ID of the
// delta whose session observed the accuracy, so each joins its session.
func TestWatchdogEventsCarryDeltaTrace(t *testing.T) {
	col := obs.NewCollector()
	st, sys := newDriftStack(t, 1, obs.New(col))
	st.register(t, testkit.Query{ID: "D1", Pred: "s>40", Accuracy: 0.9})
	const segSize = 40
	traces := map[string]bool{}
	for seg := 0; seg < 35; seg++ {
		deltas, err := st.ing.Ingest(driftBlobs(segSize, uint64(1000+seg), seg*segSize, seg >= 15))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range deltas {
			traces[d.Resp.TraceID] = true
		}
	}
	if sys.Trips < 1 {
		t.Fatalf("Trips = %d, want at least 1 (anti-correlated drift must trip the watchdog)", sys.Trips)
	}
	seen := map[string]int{}
	for _, ev := range col.Events() {
		switch ev.Name {
		case "watchdog.breach", "watchdog.trip", "watchdog.close":
			seen[ev.Name]++
			if ev.Trace == "" || !traces[ev.Trace] {
				t.Errorf("%s event carries trace %q, no delta's", ev.Name, ev.Trace)
			}
		}
	}
	if seen["watchdog.breach"] == 0 || seen["watchdog.trip"] == 0 {
		t.Fatalf("watchdog events %v, want breaches and a trip", seen)
	}
}
