package bench

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestAuditQuick runs the accuracy audit at quick size: every class has a
// row at every target, the shares are shares, a recall met outright is
// also met within its interval, every TRAF20 query is listed, and the
// report is a pure function of the seed.
func TestAuditQuick(t *testing.T) {
	rep := quickReport(t, "audit")
	for _, class := range []string{"single", "compound", "ad-hoc"} {
		for _, target := range auditTargets {
			key := fmt.Sprintf("%s@%g", class, target)
			met, ok := rep.Metrics[key+".recall_target_met_share"]
			inCI := rep.Metrics[key+".met_in_ci_share"]
			if !ok || met < 0 || met > inCI || inCI > 1 {
				t.Fatalf("%s: met %v, met in CI %v (present %v)", key, met, inCI, ok)
			}
		}
	}
	text := rep.String()
	for _, q := range TRAF20 {
		if !strings.Contains(text, "\n"+q.ID+" ") {
			t.Fatalf("query %s missing from the per-query table:\n%s", q.ID, text)
		}
	}
	again, err := Audit(quick)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep.Lines, again.Lines) {
		t.Fatalf("two runs at seed %d differ:\n%s\n%s", quick.Seed, rep, again)
	}
}

// TestWilsonInterval pins the interval against published values and its
// edges.
func TestWilsonInterval(t *testing.T) {
	for _, c := range []struct {
		k, n   int
		lo, hi float64
	}{
		{8, 10, 0.4902, 0.9433},
		{0, 10, 0, 0.2775},
		{10, 10, 0.7225, 1},
		{95, 100, 0.8882, 0.9785},
	} {
		lo, hi := wilson(c.k, c.n)
		if math.Abs(lo-c.lo) > 5e-4 || math.Abs(hi-c.hi) > 5e-4 {
			t.Errorf("wilson(%d, %d) = [%.4f, %.4f], want [%.4f, %.4f]", c.k, c.n, lo, hi, c.lo, c.hi)
		}
	}
	for _, n := range []int{0, 1, 7, 100, 4099} {
		if lo, _ := wilson(0, n); lo != 0 {
			t.Errorf("wilson(0, %d) lower bound %v, want 0", n, lo)
		}
		if _, hi := wilson(n, n); hi != 1 {
			t.Errorf("wilson(%d, %d) upper bound %v, want 1", n, n, hi)
		}
	}
}
