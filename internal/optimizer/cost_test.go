package optimizer

import (
	"testing"

	"probpred/internal/data"
	"probpred/internal/query"
)

// searchShapes are the plan searches the benchmark's adhoc_cold mix is made
// of, over the benchmark-shaped corpus at its accuracy target.
var searchShapes = []struct {
	name, pred string
	// candidates and subproblems pin the work one search does: expressions
	// costed, and distinct node and sub-problem plans the DP solved for them.
	candidates, subproblems int
	// maxAllocs is the allocation budget for one whole Optimize.
	maxAllocs float64
}{
	{"3-clause", "t=SUV & c=red & s>60", 12, 311, 1800},
	{"4-clause", "t=SUV & c=red & s>60 & i=pt335", 20, 1796, 6000},
	{"disjunctive", "(t=SUV | t=van) & c=red & s>60", 15, 890, 3000},
}

func searchOptions() Options {
	return Options{Accuracy: 0.95, UDFCost: 40, Domains: data.TrafficDomains()}
}

// TestOptimizeAllocBudget bounds what one cold plan search allocates — the
// adhoc_cold request is little else. The recursion this DP replaced spent
// 104 632 allocations on the 4-clause search, 3 752 on the 3-clause one and
// 7 779 on the disjunctive one. The
// candidate and sub-problem counts are asserted beside the budget so it
// cannot be met by searching less.
func TestOptimizeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	opt := New(mustTrafCorpus(t))
	for _, s := range searchShapes {
		pred := query.MustParse(s.pred)
		dec, err := opt.Optimize(pred, searchOptions())
		if err != nil {
			t.Fatal(err)
		}
		if dec.Search.Costed != s.candidates || dec.Search.MemoEntries != s.subproblems {
			t.Errorf("%s: search costed %d candidates over %d sub-problems, want %d over %d",
				s.name, dec.Search.Costed, dec.Search.MemoEntries, s.candidates, s.subproblems)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := opt.Optimize(pred, searchOptions()); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per search (%d candidates, %d sub-problems, %d memo hits)",
			s.name, allocs, dec.Search.Costed, dec.Search.MemoEntries, dec.Search.MemoHits)
		if allocs > s.maxAllocs {
			t.Errorf("%s: %.0f allocations per search, budget %.0f", s.name, allocs, s.maxAllocs)
		}
	}
}

var sinkDecision *Decision

func BenchmarkOptimize(b *testing.B) {
	opt := New(mustTrafCorpus(b))
	for _, s := range searchShapes {
		pred := query.MustParse(s.pred)
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dec, err := opt.Optimize(pred, searchOptions())
				if err != nil {
					b.Fatal(err)
				}
				sinkDecision = dec
			}
		})
	}
}
