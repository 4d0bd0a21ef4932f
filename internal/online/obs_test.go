package online

import (
	"testing"

	"probpred/internal/core"
	"probpred/internal/data"
	"probpred/internal/obs"
	"probpred/internal/query"
)

func eventNames(col *obs.Collector) map[string]int {
	out := map[string]int{}
	for _, ev := range col.Events() {
		out[ev.Name]++
	}
	return out
}

// TestOnlineEmitsTrainingAndWatchdogRecords: the whole circuit-breaker
// lifecycle — train, breach, trip, retrain, probation, close — must be
// visible through the tracer.
func TestOnlineEmitsTrainingAndWatchdogRecords(t *testing.T) {
	col := obs.NewCollector()
	cfg := Config{
		Clauses:   []string{"t=SUV"},
		MinLabels: 300,
		Train:     core.TrainConfig{Approach: "Raw+SVM"},
		Domains:   data.TrafficDomains(),
		Seed:      30,
		Watchdog:  WatchdogConfig{K: 3, FreshLabels: 200},
		Obs:       obs.New(col),
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream := data.Traffic(data.TrafficConfig{Rows: 900, Seed: 31})
	for _, b := range stream {
		if err := s.Observe(b, data.TrafficLookup(b)); err != nil {
			t.Fatal(err)
		}
	}
	// Initial training emitted a span and an event.
	trainSpans := 0
	for _, sp := range col.Spans() {
		if sp.Kind == obs.KindTrain && sp.Name == "t=SUV" {
			trainSpans++
			if sp.RowsIn == 0 {
				t.Fatal("train span carries no training-set size")
			}
		}
	}
	if trainSpans == 0 {
		t.Fatal("no train span after initial training")
	}
	if eventNames(col)["online.train"] == 0 {
		t.Fatal("no online.train event")
	}

	dec, err := s.Decide(query.MustParse("t=SUV"), 0.95, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Inject {
		t.Fatal("warm system should inject")
	}
	// Decide threads the tracer into the optimizer: an optimize span exists.
	optSpans := 0
	for _, sp := range col.Spans() {
		if sp.Kind == obs.KindOptimize {
			optSpans++
		}
	}
	if optSpans == 0 {
		t.Fatal("Decide emitted no optimize span")
	}

	// Three consecutive breaches trip the breaker.
	for i := 0; i < 3; i++ {
		s.ReportAccuracy(dec, 0.5, 0.95)
	}
	evs := eventNames(col)
	if evs["watchdog.breach"] != 3 {
		t.Fatalf("breach events = %d, want 3", evs["watchdog.breach"])
	}
	if evs["watchdog.trip"] != 1 {
		t.Fatalf("trip events = %d, want 1", evs["watchdog.trip"])
	}

	// Fresh labels retrain the clause onto probation...
	fresh := data.Traffic(data.TrafficConfig{Rows: 400, Seed: 33})
	for _, b := range fresh {
		if err := s.Observe(b, data.TrafficLookup(b)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Breaker("t=SUV") != BreakerProbation {
		t.Fatalf("breaker = %v after retraining", s.Breaker("t=SUV"))
	}
	if eventNames(col)["watchdog.probation"] != 1 {
		t.Fatalf("probation events = %d, want 1", eventNames(col)["watchdog.probation"])
	}

	// ...and a passing probation run closes it.
	dec2, err := s.Decide(query.MustParse("t=SUV"), 0.95, 100)
	if err != nil {
		t.Fatal(err)
	}
	s.ReportAccuracy(dec2, 0.97, 0.95)
	if s.Breaker("t=SUV") != BreakerClosed {
		t.Fatalf("breaker = %v after passing probation", s.Breaker("t=SUV"))
	}
	if eventNames(col)["watchdog.close"] != 1 {
		t.Fatalf("close events = %d, want 1", eventNames(col)["watchdog.close"])
	}
}
