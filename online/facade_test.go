package online_test

import (
	"testing"

	"probpred/online"
)

// The watchdog states re-exported by the facade round-trip through it
// (regression for facade drift).
func TestFacadeWatchdogStates(t *testing.T) {
	sys, err := online.New(online.Config{Clauses: []string{"t=SUV"}})
	if err != nil {
		t.Fatal(err)
	}
	if st := sys.Breaker("t=SUV"); st != online.BreakerClosed {
		t.Fatalf("fresh clause breaker = %v, want BreakerClosed", st)
	}
	if st := sys.Breaker("unmanaged"); st != online.BreakerClosed {
		t.Fatalf("unmanaged clause breaker = %v, want BreakerClosed", st)
	}
}
