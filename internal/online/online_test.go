package online

import (
	"sync"
	"testing"

	"probpred/internal/core"
	"probpred/internal/data"
	"probpred/internal/optimizer"
	"probpred/internal/query"
)

func newTrafficSystem(t *testing.T, minLabels int) *System {
	t.Helper()
	s, err := New(Config{
		Clauses:   []string{"t=SUV", "t=van", "c=red", "s>60"},
		MinLabels: minLabels,
		Train:     core.TrainConfig{Approach: "Raw+SVM"},
		Domains:   data.TrafficDomains(),
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("expected error for no clauses")
	}
	if _, err := New(Config{Clauses: []string{"t="}}); err == nil {
		t.Fatal("expected error for unparsable clause")
	}
	if _, err := New(Config{Clauses: []string{"t=SUV & c=red"}}); err == nil {
		t.Fatal("expected error for composite clause")
	}
}

func TestColdStartNoInjection(t *testing.T) {
	s := newTrafficSystem(t, 500)
	dec, err := s.Decide(query.MustParse("t=SUV"), 0.95, 100)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Inject {
		t.Fatal("cold-start system must not inject")
	}
	if len(s.TrainedClauses()) != 0 {
		t.Fatal("no PP should exist yet")
	}
}

func TestTrainsAfterEnoughLabels(t *testing.T) {
	s := newTrafficSystem(t, 400)
	// One continuous stream from one camera deployment: the system observes
	// the prefix; the suffix is the "fresh" data PPs later filter.
	stream := data.Traffic(data.TrafficConfig{Rows: 3200, Seed: 2})
	for _, b := range stream[:1200] {
		if err := s.Observe(b, data.TrafficLookup(b)); err != nil {
			t.Fatal(err)
		}
	}
	trained := s.TrainedClauses()
	if len(trained) != 4 {
		t.Fatalf("trained = %v, want all 4 clauses", trained)
	}
	// Decisions now inject.
	dec, err := s.Decide(query.MustParse("t=SUV & c=red"), 0.95, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Inject {
		t.Fatal("warm system should inject")
	}
	// And the injected filter is sound on fresh data at a=1.
	dec1, err := s.Decide(query.MustParse("t=SUV"), 1.0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if dec1.Inject {
		fresh := stream[1200:]
		set, err := data.TrafficSet(fresh, query.MustParse("t=SUV"))
		if err != nil {
			t.Fatal(err)
		}
		dropped := 0
		for i, b := range set.Blobs {
			if !set.Labels[i] {
				continue
			}
			if pass, _ := dec1.Filter.Test(b); !pass {
				dropped++
			}
		}
		if frac := float64(dropped) / float64(set.Positives()); frac > 0.05 {
			t.Fatalf("online PP dropped %v of positives at a=1", frac)
		}
	}
}

func TestRetrainingCadence(t *testing.T) {
	s, err := New(Config{
		Clauses:      []string{"t=SUV"},
		MinLabels:    300,
		RetrainEvery: 500,
		BufferCap:    1000,
		Train:        core.TrainConfig{Approach: "Raw+SVM"},
		Seed:         4,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := data.Traffic(data.TrafficConfig{Rows: 2400, Seed: 5})
	for _, b := range stream {
		if err := s.Observe(b, data.TrafficLookup(b)); err != nil {
			t.Fatal(err)
		}
	}
	// First training at ~300 labels, retraining every 500 thereafter:
	// 300 + k*500 <= 2400 → k = 4 retrainings, 5 total.
	if s.Trainings < 4 || s.Trainings > 6 {
		t.Fatalf("trainings = %d, want ~5", s.Trainings)
	}
}

func TestObserveSkipsUnmaterializedClauses(t *testing.T) {
	s := newTrafficSystem(t, 100)
	stream := data.Traffic(data.TrafficConfig{Rows: 400, Seed: 6})
	// A lookup that only materializes the type column: color and speed
	// clauses get no labels.
	typeOnly := func(b interface{ TruthVal(string) (float64, bool) }) query.Lookup {
		return func(col string) (query.Value, bool) {
			if col != "t" {
				return query.Value{}, false
			}
			v, _ := b.TruthVal("t")
			return query.Str(data.VehicleTypes[int(v)]), true
		}
	}
	for _, b := range stream {
		if err := s.Observe(b, typeOnly(b)); err != nil {
			t.Fatal(err)
		}
	}
	trained := s.TrainedClauses()
	for _, c := range trained {
		if c == "c=red" || c == "s>60" {
			t.Fatalf("clause %q trained without labels", c)
		}
	}
	if len(trained) == 0 {
		t.Fatal("type clauses should have trained")
	}
}

func TestBufferCapEvicts(t *testing.T) {
	s, err := New(Config{
		Clauses:   []string{"t=SUV"},
		MinLabels: 100,
		BufferCap: 150,
		Train:     core.TrainConfig{Approach: "Raw+SVM"},
		Seed:      7,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := data.Traffic(data.TrafficConfig{Rows: 500, Seed: 8})
	for _, b := range stream {
		if err := s.Observe(b, data.TrafficLookup(b)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(s.clauses["t=SUV"].blobs); n > 150 {
		t.Fatalf("buffer grew to %d, cap 150", n)
	}
}

func TestReportRunFeedsDependence(t *testing.T) {
	s := newTrafficSystem(t, 300)
	stream := data.Traffic(data.TrafficConfig{Rows: 1000, Seed: 9})
	for _, b := range stream {
		if err := s.Observe(b, data.TrafficLookup(b)); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := s.Decide(query.MustParse("t=SUV & c=red"), 0.95, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Inject || dec.NumPPs < 2 {
		t.Skip("need multi-PP decision")
	}
	s.ReportRun(dec, 0) // wildly off the estimate
	dec2, err := s.Decide(query.MustParse("t=SUV & c=red"), 0.95, 100)
	if err != nil {
		t.Fatal(err)
	}
	if dec2.Inject && dec2.NumPPs > 1 {
		t.Fatal("dependence feedback ignored")
	}
}

// warmSystem trains a one-clause system on a stream prefix and returns the
// system, the stream, and an injecting decision.
func warmSystem(t *testing.T, cfg Config, clause, pred string, rows int) (*System, *optimizer.Decision) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := data.Traffic(data.TrafficConfig{Rows: rows, Seed: 31})
	for _, b := range stream {
		if err := s.Observe(b, data.TrafficLookup(b)); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := s.Decide(query.MustParse(pred), 0.95, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Inject {
		t.Fatalf("warm system should inject for %s", pred)
	}
	if got := s.Breaker(clause); got != BreakerClosed {
		t.Fatalf("breaker = %v before any report", got)
	}
	return s, dec
}

func watchdogConfig() Config {
	return Config{
		Clauses:   []string{"t=SUV"},
		MinLabels: 300,
		Train:     core.TrainConfig{Approach: "Raw+SVM"},
		Domains:   data.TrafficDomains(),
		Seed:      30,
		Watchdog:  WatchdogConfig{K: 3, FreshLabels: 200},
	}
}

// TestWatchdogTripsWithinKAndFallsBack: K consecutive below-target reports
// open the breaker; decisions then fall back to the NoP plan (no injection,
// hence zero lost true positives by construction).
func TestWatchdogTripsWithinKAndFallsBack(t *testing.T) {
	s, dec := warmSystem(t, watchdogConfig(), "t=SUV", "t=SUV", 900)
	// Two breaches do not trip; accuracy recovering resets the count.
	s.ReportAccuracy(dec, 0.80, 0.95)
	s.ReportAccuracy(dec, 0.82, 0.95)
	if s.Breaker("t=SUV") != BreakerClosed {
		t.Fatal("tripped before K breaches")
	}
	s.ReportAccuracy(dec, 0.96, 0.95) // pass resets the streak
	s.ReportAccuracy(dec, 0.80, 0.95)
	s.ReportAccuracy(dec, 0.80, 0.95)
	if s.Breaker("t=SUV") != BreakerClosed {
		t.Fatal("breach streak must reset on a passing report")
	}
	s.ReportAccuracy(dec, 0.80, 0.95) // third consecutive breach: trip
	if s.Breaker("t=SUV") != BreakerOpen {
		t.Fatalf("breaker = %v after K consecutive breaches", s.Breaker("t=SUV"))
	}
	if s.Trips != 1 {
		t.Fatalf("trips = %d", s.Trips)
	}
	if got := s.TrippedClauses(); len(got) != 1 || got[0] != "t=SUV" {
		t.Fatalf("tripped = %v", got)
	}
	// Fallback: the PP left the corpus, so the query runs unmodified.
	dec2, err := s.Decide(query.MustParse("t=SUV"), 0.95, 100)
	if err != nil {
		t.Fatal(err)
	}
	if dec2.Inject {
		t.Fatal("open breaker must force the NoP fallback")
	}
}

// TestWatchdogRetrainsAndReenables: a tripped clause retrains once enough
// fresh labels arrive, serves on probation, and closes after a passing run.
func TestWatchdogRetrainsAndReenables(t *testing.T) {
	s, dec := warmSystem(t, watchdogConfig(), "t=SUV", "t=SUV", 900)
	for i := 0; i < 3; i++ {
		s.ReportAccuracy(dec, 0.5, 0.95)
	}
	if s.Breaker("t=SUV") != BreakerOpen {
		t.Fatal("breaker should be open")
	}
	trainingsAtTrip := s.Trainings
	// Fresh labels stream in while queries run unmodified; fewer than
	// FreshLabels must not retrain yet.
	fresh := data.Traffic(data.TrafficConfig{Rows: 400, Seed: 33})
	for _, b := range fresh[:150] {
		if err := s.Observe(b, data.TrafficLookup(b)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Breaker("t=SUV") != BreakerOpen {
		t.Fatal("retrained before FreshLabels fresh labels")
	}
	for _, b := range fresh[150:] {
		if err := s.Observe(b, data.TrafficLookup(b)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Breaker("t=SUV") != BreakerProbation {
		t.Fatalf("breaker = %v after retraining", s.Breaker("t=SUV"))
	}
	if s.Trainings != trainingsAtTrip+1 {
		t.Fatalf("trainings = %d, want %d", s.Trainings, trainingsAtTrip+1)
	}
	// Probation PP serves decisions again.
	dec2, err := s.Decide(query.MustParse("t=SUV"), 0.95, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !dec2.Inject {
		t.Fatal("probation PP should serve decisions")
	}
	s.ReportAccuracy(dec2, 0.97, 0.95)
	if s.Breaker("t=SUV") != BreakerClosed {
		t.Fatalf("breaker = %v after passing probation", s.Breaker("t=SUV"))
	}
}

// TestWatchdogProbationFailureTripsAgain: a retrained PP that still misses
// its target goes straight back to open.
func TestWatchdogProbationFailureTripsAgain(t *testing.T) {
	s, dec := warmSystem(t, watchdogConfig(), "t=SUV", "t=SUV", 900)
	for i := 0; i < 3; i++ {
		s.ReportAccuracy(dec, 0.5, 0.95)
	}
	fresh := data.Traffic(data.TrafficConfig{Rows: 300, Seed: 34})
	for _, b := range fresh {
		if err := s.Observe(b, data.TrafficLookup(b)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Breaker("t=SUV") != BreakerProbation {
		t.Fatalf("breaker = %v, want probation", s.Breaker("t=SUV"))
	}
	dec2, err := s.Decide(query.MustParse("t=SUV"), 0.95, 100)
	if err != nil {
		t.Fatal(err)
	}
	s.ReportAccuracy(dec2, 0.5, 0.95) // probation run fails
	if s.Breaker("t=SUV") != BreakerOpen {
		t.Fatalf("breaker = %v after failed probation", s.Breaker("t=SUV"))
	}
	if s.Trips != 2 {
		t.Fatalf("trips = %d, want 2", s.Trips)
	}
}

// TestWatchdogMargin: reports within the configured slack are not breaches.
func TestWatchdogMargin(t *testing.T) {
	cfg := watchdogConfig()
	cfg.Watchdog.Margin = 0.05
	s, dec := warmSystem(t, cfg, "t=SUV", "t=SUV", 900)
	for i := 0; i < 10; i++ {
		s.ReportAccuracy(dec, 0.91, 0.95) // within the 0.05 margin
	}
	if s.Breaker("t=SUV") != BreakerClosed {
		t.Fatal("in-margin reports must not breach")
	}
}

// TestWatchdogResolvesNegationDerivedLeaves: a decision injecting a
// negation-derived PP (e.g. PP[c!=white] from the c=white classifier) charges
// the base clause the system actually manages.
func TestWatchdogResolvesNegationDerivedLeaves(t *testing.T) {
	cfg := watchdogConfig()
	cfg.Clauses = []string{"c=white"}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := data.Traffic(data.TrafficConfig{Rows: 900, Seed: 35})
	for _, b := range stream {
		if err := s.Observe(b, data.TrafficLookup(b)); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := s.Decide(query.MustParse("c!=white"), 0.95, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Inject {
		t.Skip("negated clause did not inject on this seed")
	}
	for i := 0; i < 3; i++ {
		s.ReportAccuracy(dec, 0.5, 0.95)
	}
	if s.Breaker("c=white") != BreakerOpen {
		t.Fatalf("base clause breaker = %v, want open", s.Breaker("c=white"))
	}
}

func TestDecideValidation(t *testing.T) {
	s := newTrafficSystem(t, 100)
	if _, err := s.Decide(query.MustParse("t=SUV"), 2.0, 100); err == nil {
		t.Fatal("expected error for accuracy > 1")
	}
	if _, err := s.Decide(query.MustParse("t=SUV"), 0.9, -1); err == nil {
		t.Fatal("expected error for negative UDF cost")
	}
}

// TestSystemConcurrentUse: deciders and status readers run beside the label
// stream that trains, trips and retrains — the calls a serving process makes
// from its sessions while an ingest loop drives Observe and ReportAccuracy.
func TestSystemConcurrentUse(t *testing.T) {
	s, dec := warmSystem(t, watchdogConfig(), "t=SUV", "t=SUV", 900)
	pred := query.MustParse("t=SUV & c=red")
	var wg sync.WaitGroup
	stop := make(chan struct{})
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
				d, err := s.Decide(pred, 0.95, 100)
				if err != nil {
					t.Error(err)
					return
				}
				s.ReportRun(d, d.Reduction)
				_ = s.Breaker("t=SUV")
				_ = s.TrainedClauses()
				_ = s.TrippedClauses()
			}
		}()
	}
	for i := 0; i < 3; i++ {
		s.ReportAccuracy(dec, 0.5, 0.95) // K breaches: trip, PP leaves the corpus
	}
	for _, b := range data.Traffic(data.TrafficConfig{Rows: 400, Seed: 32}) {
		if err := s.Observe(b, data.TrafficLookup(b)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if s.Trips != 1 || s.Breaker("t=SUV") != BreakerProbation {
		t.Fatalf("trips = %d, breaker = %v; want one trip and a retrained PP on probation", s.Trips, s.Breaker("t=SUV"))
	}
}
