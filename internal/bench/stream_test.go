package bench

import "testing"

// TestStreamBenchQuick runs the drift scenario at quick scale and asserts
// the timeline's structure: one entry per segment, the NoP fallback right
// after the breaker opens, and warm-started incremental retraining. The
// scenario's metric claims (trip, recovery, accuracy, cost ratios, backfill
// equivalence) are TestScenarioGates rows.
func TestStreamBenchQuick(t *testing.T) {
	timeline, rep, err := runStream(Config{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "stream" || len(rep.Lines) == 0 {
		t.Fatalf("malformed report: %+v", rep)
	}
	const quickSegments = 20
	if len(timeline) != quickSegments {
		t.Fatalf("timeline has %d segments, want %d", len(timeline), quickSegments)
	}
	// A segment is served under the breaker state left by the previous
	// segment's train phase: after an "open" segment the next one must run
	// without injection (the NoP fallback).
	sawOpen := false
	for i, s := range timeline {
		if s.Index != i {
			t.Errorf("timeline[%d] is segment %d", i, s.Index)
		}
		if s.Breaker != "open" {
			continue
		}
		sawOpen = true
		if i+1 < len(timeline) && timeline[i+1].Trainings == s.Trainings && timeline[i+1].Injected {
			t.Errorf("segment %d served with an injected PP right after the breaker opened", i+1)
		}
	}
	if !sawOpen {
		t.Error("timeline never shows the breaker open")
	}
	// Warm-started incremental retraining: more trainings than the single
	// cold start plus the post-trip retrain.
	if n := timeline[len(timeline)-1].Trainings; n < 4 {
		t.Errorf("Trainings = %d, want scheduled incremental retrainings", n)
	}
}
