package optimizer

import (
	"testing"

	"probpred/internal/query"
	"probpred/internal/testkit"
)

func TestInferClauses(t *testing.T) {
	preds := []query.Pred{
		query.MustParse("t=SUV & c=red"),
		query.MustParse("t=SUV | t=van"),
		query.MustParse("!(t=SUV)"),
	}
	freq := InferClauses(preds, testkit.Domains())
	if freq["t=SUV"] != 3 { // appears in all three (the ¬ becomes t!=SUV whose twin is t=SUV)
		t.Fatalf("freq[t=SUV] = %d, want 3 (%v)", freq["t=SUV"], freq)
	}
	if freq["c=red"] != 1 || freq["t=van"] < 1 {
		t.Fatalf("freq = %v", freq)
	}
	// The ≠ form itself is counted once.
	if freq["t!=SUV"] != 1 {
		t.Fatalf("freq[t!=SUV] = %d", freq["t!=SUV"])
	}
	// The ≠ wrangle adds equality clauses for the complement values.
	if freq["t=truck"] < 1 || freq["t=sedan"] < 1 {
		t.Fatalf("wrangled complements missing: %v", freq)
	}
}

func TestInferClausesDedupsWithinQuery(t *testing.T) {
	preds := []query.Pred{query.MustParse("t=SUV & (t=SUV | c=red)")}
	freq := InferClauses(preds, nil)
	if freq["t=SUV"] != 1 {
		t.Fatalf("clause double-counted within one query: %v", freq)
	}
}

func TestSelectTrainingSetBudget(t *testing.T) {
	candidates := []TrainingCandidate{
		{Clause: "a", TrainCost: 10, Queries: map[int]float64{0: 0.5, 1: 0.5}},
		{Clause: "b", TrainCost: 10, Queries: map[int]float64{2: 0.5}},
		{Clause: "c", TrainCost: 10, Queries: map[int]float64{3: 0.5}},
	}
	plan, err := SelectTrainingSet(candidates, 20)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalCost > 20 {
		t.Fatalf("budget exceeded: %v", plan.TotalCost)
	}
	// "a" benefits two queries for the same cost: it must be picked first.
	if plan.Clauses[0] != "a" && plan.Clauses[1] != "a" {
		t.Fatalf("high-benefit candidate not chosen: %v", plan.Clauses)
	}
	if len(plan.Clauses) != 2 {
		t.Fatalf("chose %d candidates within budget 20", len(plan.Clauses))
	}
	if plan.Covered != 3 {
		t.Fatalf("covered = %d, want 3 (a covers 2, plus one of b/c)", plan.Covered)
	}
}

func TestSelectTrainingSetMarginalBenefit(t *testing.T) {
	// "redundant" helps the same query as "first" but less; after "first"
	// is chosen its marginal gain is zero, so "other" wins the second slot.
	candidates := []TrainingCandidate{
		{Clause: "first", TrainCost: 1, Queries: map[int]float64{0: 0.9}},
		{Clause: "redundant", TrainCost: 1, Queries: map[int]float64{0: 0.5}},
		{Clause: "other", TrainCost: 1, Queries: map[int]float64{1: 0.2}},
	}
	plan, err := SelectTrainingSet(candidates, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"first": true, "other": true}
	for _, c := range plan.Clauses {
		if !want[c] {
			t.Fatalf("chose %v; redundant candidate should be skipped", plan.Clauses)
		}
	}
	if plan.Benefit != 0.9+0.2 {
		t.Fatalf("benefit = %v", plan.Benefit)
	}
}

func TestSelectTrainingSetCheapCoverageBeatsExpensive(t *testing.T) {
	// The set-cover structure from A.1's reduction: many cheap PPs that
	// each cover one query versus one expensive PP covering them all but
	// blowing the budget.
	candidates := []TrainingCandidate{
		{Clause: "expensive", TrainCost: 100, Queries: map[int]float64{0: 0.9, 1: 0.9, 2: 0.9}},
		{Clause: "c0", TrainCost: 5, Queries: map[int]float64{0: 0.8}},
		{Clause: "c1", TrainCost: 5, Queries: map[int]float64{1: 0.8}},
		{Clause: "c2", TrainCost: 5, Queries: map[int]float64{2: 0.8}},
	}
	plan, err := SelectTrainingSet(candidates, 20)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Covered != 3 || plan.TotalCost != 15 {
		t.Fatalf("plan = %+v", plan)
	}
}

func TestSelectTrainingSetErrors(t *testing.T) {
	if _, err := SelectTrainingSet(nil, 0); err == nil {
		t.Fatal("expected error for zero budget")
	}
	bad := []TrainingCandidate{{Clause: "x", TrainCost: 0}}
	if _, err := SelectTrainingSet(bad, 10); err == nil {
		t.Fatal("expected error for zero training cost")
	}
}

func TestSelectTrainingSetEmptyCandidates(t *testing.T) {
	plan, err := SelectTrainingSet(nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Clauses) != 0 || plan.Benefit != 0 {
		t.Fatalf("plan = %+v", plan)
	}
}
