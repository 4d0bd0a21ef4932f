package bench

import (
	"strings"
	"testing"
)

// TestFaultsScenario runs the full faults experiment in quick mode and checks
// the acceptance criteria: every injected-fault run stays byte-identical to
// the fault-free reference, and the watchdog trips under drift while fallback
// windows lose zero true positives.
func TestFaultsScenario(t *testing.T) {
	rep := quickReport(t, "faults")
	text := strings.Join(rep.Lines, "\n")
	if strings.Contains(text, "DIVERGED") {
		t.Fatalf("fault sweep diverged from fault-free output:\n%s", text)
	}
	if n := strings.Count(text, "IDENTICAL"); n != 6 {
		t.Fatalf("identical runs = %d, want 6 (2 queries x 3 nonzero rates):\n%s", n, text)
	}
	if !strings.Contains(text, "without retries, 10% injection fails fast") {
		t.Fatalf("expected retry-less run to fail:\n%s", text)
	}
	if !strings.Contains(text, "open") {
		t.Fatalf("watchdog never tripped under drift:\n%s", text)
	}
	if strings.Contains(text, "trips=0") {
		t.Fatalf("watchdog reported zero trips:\n%s", text)
	}
	// Every fallback window must lose zero positives: any "NoP fallback" row
	// reports lost=0 by construction; assert the table carries such a row.
	if !strings.Contains(text, "NoP fallback") {
		t.Fatalf("no fallback window in watchdog demo:\n%s", text)
	}
	for _, line := range rep.Lines {
		if strings.Contains(line, "NoP fallback") && !strings.Contains(line, " 0 ") {
			t.Fatalf("fallback window lost positives: %s", line)
		}
	}
}
