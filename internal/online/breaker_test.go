package online

import "testing"

// The breaker's full lifecycle: breaches accumulate while closed, the K-th
// consecutive failure trips, probation decides between closing and
// re-tripping.
func TestBreakerLifecycle(t *testing.T) {
	b := NewBreaker(BreakerConfig{K: 3})
	if b.State() != BreakerClosed {
		t.Fatalf("new breaker state = %v, want closed", b.State())
	}

	// Two failures breach; a pass resets the streak.
	if tr := b.Report(false); tr != TransitionBreach {
		t.Fatalf("1st fail = %v, want breach", tr)
	}
	if tr := b.Report(false); tr != TransitionBreach {
		t.Fatalf("2nd fail = %v, want breach", tr)
	}
	if tr := b.Report(true); tr != TransitionNone {
		t.Fatalf("pass = %v, want none", tr)
	}
	if b.Fails() != 0 {
		t.Fatalf("fails after pass = %d, want 0", b.Fails())
	}

	// Three consecutive failures trip.
	b.Report(false)
	b.Report(false)
	if tr := b.Report(false); tr != TransitionTrip {
		t.Fatalf("3rd consecutive fail = %v, want trip", tr)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v, want open", b.State())
	}

	// Reports while open are ignored.
	if tr := b.Report(false); tr != TransitionNone {
		t.Fatalf("report while open = %v, want none", tr)
	}
	if tr := b.Report(true); tr != TransitionNone {
		t.Fatalf("pass while open = %v, want none", tr)
	}

	// A probation miss re-trips.
	b.Probation()
	if b.State() != BreakerProbation {
		t.Fatalf("state after Probation = %v", b.State())
	}
	if tr := b.Report(false); tr != TransitionTrip {
		t.Fatalf("probation fail = %v, want trip", tr)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state after probation re-trip = %v, want open", b.State())
	}

	// A probation pass closes.
	b.Probation()
	if tr := b.Report(true); tr != TransitionClose {
		t.Fatalf("probation pass = %v, want close", tr)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed", b.State())
	}
}

// Probation is a no-op unless the breaker is open.
func TestBreakerProbationOnlyFromOpen(t *testing.T) {
	b := NewBreaker(BreakerConfig{})
	b.Probation()
	if b.State() != BreakerClosed {
		t.Fatalf("Probation on closed breaker moved state to %v", b.State())
	}
}

// Defaults fill in so a zero config is usable.
func TestBreakerDefaults(t *testing.T) {
	b := NewBreaker(BreakerConfig{})
	for i := 0; i < 2; i++ {
		if tr := b.Report(false); tr != TransitionBreach {
			t.Fatalf("fail %d = %v, want breach (default K=3)", i+1, tr)
		}
	}
	if tr := b.Report(false); tr != TransitionTrip {
		t.Fatalf("3rd fail = %v, want trip with default K", tr)
	}
}

// Transition strings are stable — events and Analyze output embed them.
func TestTransitionString(t *testing.T) {
	want := map[Transition]string{
		TransitionNone:   "none",
		TransitionBreach: "breach",
		TransitionTrip:   "trip",
		TransitionClose:  "close",
	}
	for tr, s := range want {
		if tr.String() != s {
			t.Fatalf("Transition(%d).String() = %q, want %q", tr, tr.String(), s)
		}
	}
}
