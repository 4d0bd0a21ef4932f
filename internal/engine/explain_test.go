package engine

import (
	"strings"
	"testing"
	"unicode/utf8"

	"probpred/internal/query"
)

// TestSummaryDuplicateOperatorNames: two operators sharing a Name() (the
// same UDF applied twice) must each report their own rows and cost: PerOp is
// keyed by plan position, never by name.
func TestSummaryDuplicateOperatorNames(t *testing.T) {
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(10)},
		&Process{P: fakeUDF{name: "U", cost: 5, col: "x"}},
		&Process{P: fakeUDF{name: "U", cost: 3, col: "x"}},
		&Select{Pred: query.MustParse("x>=0")},
	}}
	res, err := Run(plan, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerOp) != 4 {
		t.Fatalf("PerOp entries = %d, want 4", len(res.PerOp))
	}
	first, second := res.PerOp[1], res.PerOp[2]
	if first.Name != "U" || second.Name != "U" {
		t.Fatalf("PerOp names = %q, %q", first.Name, second.Name)
	}
	if first.Cost != 50 || second.Cost != 30 {
		t.Fatalf("per-position costs = %v, %v; want 50, 30", first.Cost, second.Cost)
	}
	if first.RowsIn != 10 || second.RowsIn != 10 {
		t.Fatalf("per-position rows in = %d, %d; want 10, 10", first.RowsIn, second.RowsIn)
	}
	// Position-keyed costs must account for the whole run exactly.
	sum := 0.0
	for _, op := range res.PerOp {
		sum += op.Cost
	}
	if sum != res.ClusterTime {
		t.Fatalf("sum(PerOp.Cost) = %v, ClusterTime = %v", sum, res.ClusterTime)
	}

	// The rendered summary must show the individual costs, not 80 twice.
	out := res.Summary()
	if strings.Count(out, "80.0") != 0 {
		t.Fatalf("summary double-counts duplicate names:\n%s", out)
	}
	if !strings.Contains(out, "50.0") || !strings.Contains(out, "30.0") {
		t.Fatalf("summary missing per-position costs:\n%s", out)
	}
	if strings.Count(out, "U ") < 2 {
		t.Fatalf("summary should list the duplicate operator twice:\n%s", out)
	}
}

// TestTruncateRuneSafe: truncation must cut at rune boundaries; byte slicing
// would split multi-byte operator names (σ, π, ⋈, quoted values in any
// script) into invalid UTF-8.
func TestTruncateRuneSafe(t *testing.T) {
	long := "σ[" + strings.Repeat("火", 45) + "]"
	got := truncate(long, 40)
	if !utf8.ValidString(got) {
		t.Fatalf("truncate produced invalid UTF-8: %q", got)
	}
	if !strings.HasSuffix(got, "…") {
		t.Fatalf("no ellipsis: %q", got)
	}
	if n := utf8.RuneCountInString(got); n != 40 {
		t.Fatalf("rune count = %d, want 40", n)
	}
	// Short names — and names exactly at the limit — pass through untouched.
	exact := strings.Repeat("π", 40)
	if truncate(exact, 40) != exact {
		t.Fatal("name at the limit must not be truncated")
	}
	if truncate("Scan", 40) != "Scan" {
		t.Fatal("short name must not be truncated")
	}
}
