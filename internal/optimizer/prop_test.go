package optimizer

// Property-based tests over random DNF/CNF predicates (fixed seeds, fully
// deterministic): every plan the costing DP emits must respect the
// query-wide accuracy bound, canonicalization must preserve semantics, and
// plan search must be deterministic under respelling — the invariant the
// serving plan cache relies on (equal canonical keys ⇒ interchangeable
// plans).

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"probpred/internal/query"
	"probpred/internal/testkit"
)

// propClauses is the pool random predicates draw from: corpus-covered
// clauses, negation-reuse clauses, and clauses with no trained PP (partial
// coverage is the common production case).
var propClauses = []string{
	"t=SUV", "t=sedan", "t=truck", "t=van",
	"c=red", "c=white", "c=black", "c=silver",
	"s>40", "s>50", "s>60", "s<65", "s<70",
	"t!=SUV", "c!=white", // negation reuse (§5.6)
	"s>45", "i=pt303", // no trained PP
}

// randPredStr builds a random CNF or DNF predicate string: 1-3 groups of
// 1-3 clauses each.
func randPredStr(rng *rand.Rand) string {
	groups := 1 + rng.Intn(3)
	var parts []string
	cnf := rng.Intn(2) == 0
	inner, outer := " | ", " & "
	if !cnf {
		inner, outer = " & ", " | "
	}
	for g := 0; g < groups; g++ {
		k := 1 + rng.Intn(3)
		var cls []string
		for i := 0; i < k; i++ {
			cls = append(cls, propClauses[rng.Intn(len(propClauses))])
		}
		parts = append(parts, "("+strings.Join(cls, inner)+")")
	}
	return strings.Join(parts, outer)
}

// respell returns a semantically identical, syntactically different form:
// kid order reversed at every level and leaves double-negated at random.
func respell(p query.Pred, rng *rand.Rand) query.Pred {
	switch n := p.(type) {
	case *query.And:
		kids := make([]query.Pred, len(n.Kids))
		for i, k := range n.Kids {
			kids[len(kids)-1-i] = respell(k, rng)
		}
		return &query.And{Kids: kids}
	case *query.Or:
		kids := make([]query.Pred, len(n.Kids))
		for i, k := range n.Kids {
			kids[len(kids)-1-i] = respell(k, rng)
		}
		return &query.Or{Kids: kids}
	case *query.Not:
		return &query.Not{Kid: respell(n.Kid, rng)}
	case *query.Clause:
		if rng.Intn(2) == 0 {
			return &query.Not{Kid: &query.Not{Kid: n}}
		}
		return n
	}
	return p
}

// planAccuracy recursively validates a costed plan's internal consistency
// and returns the node's accuracy: conjunction accuracy is the product of
// its kids', disjunction accuracy follows Eq. 10's composition.
func planAccuracy(t *testing.T, p *plan, expr string) float64 {
	t.Helper()
	if p.leaf != nil {
		if p.accuracy < -1e-12 || p.accuracy > 1+1e-12 {
			t.Fatalf("%s: leaf accuracy %v outside [0,1]", expr, p.accuracy)
		}
		return p.accuracy
	}
	if len(p.kids) != 2 {
		t.Fatalf("%s: internal plan node has %d kids, want 2", expr, len(p.kids))
	}
	a1 := planAccuracy(t, p.kids[0], expr)
	a2 := planAccuracy(t, p.kids[1], expr)
	want := a1 * a2
	if !p.conj {
		want = a1 + a2 - a1*a2
	}
	if math.Abs(p.accuracy-want) > 1e-9 {
		t.Fatalf("%s: node accuracy %v inconsistent with kids (%v, %v) -> want %v",
			expr, p.accuracy, a1, a2, want)
	}
	return p.accuracy
}

// TestPropEveryPlanRespectsAccuracyBound: for random predicates and
// accuracy targets, EVERY candidate expression the generator emits — not
// just the chosen one — costs out to a plan whose composed accuracy meets
// the query-wide target.
func TestPropEveryPlanRespectsAccuracyBound(t *testing.T) {
	corpus := miniCorpus(t, testkit.Blobs(400, 11))
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pred := query.MustParse(randPredStr(rng))
		for _, target := range []float64{1, 0.95, 0.9, 0.8} {
			g := &generator{snap: corpus.snap.Load(), deps: consulted{}, domains: testkit.Domains(), maxPPs: 4}
			for _, e := range g.gen(pred) {
				p := costExpr(e, target, 100, costOpts{})
				if got := planAccuracy(t, p, e.String()); got < target-1e-9 {
					t.Errorf("seed %d pred %q target %v: candidate %q allocates accuracy %v",
						seed, pred.String(), target, e.String(), got)
				}
			}
		}
	}
}

// TestPropCanonicalizePreservesSemantics: Canonicalize(p) evaluates
// identically to p on every mini blob (when both evaluate cleanly), and
// respellings share the canonical key — the soundness requirement for
// keying a plan cache on CanonicalKey.
func TestPropCanonicalizePreservesSemantics(t *testing.T) {
	blobs := testkit.Blobs(150, 13)
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		pred := query.MustParse(randPredStr(rng))
		canon := Canonicalize(pred)
		for _, b := range blobs {
			lk := testkit.Lookup(b)
			want, err1 := pred.Eval(lk)
			got, err2 := canon.Eval(lk)
			if err1 != nil || err2 != nil {
				continue
			}
			if want != got {
				t.Fatalf("seed %d: %q and canonical %q disagree on blob %d: %v vs %v",
					seed, pred.String(), canon.String(), b.ID, want, got)
			}
		}
		key := CanonicalKey(pred)
		if k := CanonicalKey(canon); k != key {
			t.Fatalf("seed %d: canonicalization not idempotent: %q vs %q", seed, key, k)
		}
		if k := CanonicalKey(respell(pred, rng)); k != key {
			t.Fatalf("seed %d: respelling of %q changed key: %q vs %q", seed, pred.String(), k, key)
		}
	}
}

// TestPropSearchDeterministicUnderRespelling: plan search over a respelled
// predicate lands on the same plan key, the same injection decision, and
// the same plan cost — so a plan cached under the canonical key is a valid
// answer for every spelling that maps to it.
func TestPropSearchDeterministicUnderRespelling(t *testing.T) {
	corpus := miniCorpus(t, testkit.Blobs(400, 17))
	opt := New(corpus)
	const target, u = 0.9, 100.0
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		pred := query.MustParse(randPredStr(rng))
		alt := respell(pred, rng)
		opts := Options{Accuracy: target, UDFCost: u, Domains: testkit.Domains()}
		d1, err := opt.Optimize(pred, opts)
		if err != nil {
			t.Fatal(err)
		}
		d2, err := opt.Optimize(alt, opts)
		if err != nil {
			t.Fatal(err)
		}
		if PlanKey(pred, target) != PlanKey(alt, target) {
			t.Fatalf("seed %d: respelling changed plan key for %q", seed, pred.String())
		}
		if d1.Inject != d2.Inject {
			t.Errorf("seed %d: inject decision diverged for %q: %v vs %v",
				seed, pred.String(), d1.Inject, d2.Inject)
		}
		if math.Abs(d1.PlanCost-d2.PlanCost) > 1e-6 {
			t.Errorf("seed %d: plan cost diverged for %q: %v vs %v",
				seed, pred.String(), d1.PlanCost, d2.PlanCost)
		}
		// Re-optimizing the identical predicate must reproduce the decision
		// exactly (fresh search == what a cache would have returned).
		d3, err := opt.Optimize(pred, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d3.Expr != d1.Expr || d3.PlanCost != d1.PlanCost || d3.Inject != d1.Inject {
			t.Errorf("seed %d: repeated search diverged for %q: %q/%v vs %q/%v",
				seed, pred.String(), d1.Expr, d1.PlanCost, d3.Expr, d3.PlanCost)
		}
	}
}
