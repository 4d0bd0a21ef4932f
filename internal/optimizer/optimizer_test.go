package optimizer

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"probpred/internal/core"
	"probpred/internal/mathx"
	"probpred/internal/query"
	"probpred/internal/testkit"
)

func TestCorpusLookupDirect(t *testing.T) {
	val := testkit.Blobs(400, 1)
	c := miniCorpus(t, val)
	if c.Size() != 14 {
		t.Fatalf("corpus size = %d, want 14 (4 types + 5 colors + 5 speeds)", c.Size())
	}
	cl := query.MustParse("t=SUV").(*query.Clause)
	pp, ok := c.Lookup(cl)
	if !ok || pp.Clause != "t=SUV" {
		t.Fatal("direct lookup failed")
	}
}

func TestCorpusLookupNegationReuse(t *testing.T) {
	val := testkit.Blobs(400, 2)
	c := miniCorpus(t, val)
	cl := query.MustParse("c!=white").(*query.Clause)
	pp, ok := c.Lookup(cl)
	if !ok {
		t.Fatal("negation-reuse lookup failed")
	}
	if !pp.Negated() || pp.Clause != "c!=white" {
		t.Fatalf("negated PP wrong: %+v", pp)
	}
	// The derived PP must be cached (same pointer on second lookup).
	pp2, _ := c.Lookup(cl)
	if pp != pp2 {
		t.Fatal("negation cache miss")
	}
	// And it must actually filter: white blobs score lower.
	set := testkit.Set(t, val, "c!=white")
	if r := pp.Reduction(1); r < 0.2 {
		t.Fatalf("negated PP reduction = %v, selectivity = %v", r, set.Selectivity())
	}
	// The derivation lives beside its base: mutating other clauses leaves its
	// identity alone (score caches key on it) ...
	speed, _ := c.Get("s>60")
	c.Remove("s>60")
	c.Add(speed)
	other, _ := c.Get("c=red")
	c.Add(other)
	if pp3, _ := c.Lookup(cl); pp3 != pp {
		t.Fatal("unrelated Add/Remove re-derived c!=white at a new pointer")
	}
	// ... and replacing or removing the base retires it.
	base, _ := c.Get("c=white")
	c.Add(base)
	pp4, ok := c.Lookup(cl)
	if !ok || pp4 == pp {
		t.Fatalf("replaced base kept serving the old derivation (ok=%v)", ok)
	}
	c.Remove("c=white")
	if _, ok := c.Lookup(cl); ok {
		t.Fatal("derivation outlived its removed base")
	}
}

func TestGenerateSingleClause(t *testing.T) {
	c := miniCorpus(t, testkit.Blobs(400, 3))
	g := &generator{snap: c.snap.Load(), deps: consulted{}, domains: testkit.Domains(), maxPPs: 4}
	cands := g.gen(query.MustParse("t=SUV"))
	if len(cands) == 0 {
		t.Fatal("no candidates for a directly-covered clause")
	}
	if cands[0].String() != "PP[t=SUV]" {
		t.Fatalf("best candidate = %s", cands[0])
	}
}

func TestGenerateRelaxedComparison(t *testing.T) {
	// s>55 has no direct PP; the wrangler must relax to s>50 and s>40,
	// preferring the tighter bound.
	c := miniCorpus(t, testkit.Blobs(400, 4))
	g := &generator{snap: c.snap.Load(), deps: consulted{}, domains: testkit.Domains(), maxPPs: 4}
	cands := g.gen(query.MustParse("s>55"))
	if len(cands) == 0 {
		t.Fatal("no relaxed candidates")
	}
	found := map[string]bool{}
	for _, e := range cands {
		found[e.String()] = true
	}
	if !found["PP[s>50]"] || !found["PP[s>40]"] {
		t.Fatalf("relaxations missing: %v", found)
	}
	if found["PP[s>60]"] {
		t.Fatal("s>60 is NOT implied by s>55 and must not appear")
	}
}

// TestRelaxComparisonOnlyOffersNecessaryConditions: a PP may stand in for a
// clause only if the clause implies the PP's — at every pairing of
// {>,>=,<,<=}, and in particular at equal bounds, where strictness decides
// (s>=60, what !(s<60) normalizes to, must not be offered PP[s>60], trained
// with s=60 as a negative). Cross-checked against query.Implies over a
// domain that straddles both bounds.
func TestRelaxComparisonOnlyOffersNecessaryConditions(t *testing.T) {
	ops := []string{">", ">=", "<", "<="}
	domain := map[string][]query.Value{}
	for v := 40.0; v <= 80; v += 0.5 {
		domain["s"] = append(domain["s"], query.Number(v))
	}
	for _, qop := range ops {
		for _, pop := range ops {
			for _, bound := range []string{"50", "60", "70"} {
				clause := query.MustParse("s" + qop + "60").(*query.Clause)
				ppKey := "s" + pop + bound
				offered := len(relaxComparison(clause, []string{ppKey}, parseClauseKey)) == 1
				implied := query.Implies(clause, query.MustParse(ppKey), domain)
				if offered != implied {
					t.Errorf("query %s, PP[%s]: offered=%v, but implication is %v", clause, ppKey, offered, implied)
				}
			}
		}
	}
	// The end-to-end face of the bug: the generator must not seed s>=60
	// with PP[s>60].
	c := miniCorpus(t, testkit.Blobs(400, 4))
	g := &generator{snap: c.snap.Load(), deps: consulted{}, domains: testkit.Domains(), maxPPs: 4}
	for _, e := range g.gen(query.MustParse("!(s<60)")) {
		if e.String() == "PP[s>60]" {
			t.Fatalf("!(s<60) was offered %s, which drops s=60", e)
		}
	}
}

func TestGenerateNotEqualWrangling(t *testing.T) {
	c := miniCorpus(t, testkit.Blobs(400, 5))
	g := &generator{snap: c.snap.Load(), deps: consulted{}, domains: testkit.Domains(), maxPPs: 5}
	cands := g.gen(query.MustParse("t!=sedan"))
	// Both the negation-reuse leaf and the ∨-of-equals rewrite should show.
	var hasLeaf, hasDisj bool
	for _, e := range cands {
		if e.String() == "PP[t!=sedan]" {
			hasLeaf = true
		}
		if strings.Contains(e.String(), "PP[t=SUV] | PP[t=truck] | PP[t=van]") {
			hasDisj = true
		}
	}
	if !hasLeaf || !hasDisj {
		for _, e := range cands {
			t.Logf("candidate: %s", e)
		}
		t.Fatalf("hasLeaf=%v hasDisj=%v", hasLeaf, hasDisj)
	}
}

func TestGenerateConjunction(t *testing.T) {
	c := miniCorpus(t, testkit.Blobs(400, 6))
	g := &generator{snap: c.snap.Load(), deps: consulted{}, domains: testkit.Domains(), maxPPs: 4}
	cands := g.gen(query.MustParse("t=SUV & c=red"))
	found := map[string]bool{}
	for _, e := range cands {
		found[e.String()] = true
	}
	for _, want := range []string{"PP[t=SUV]", "PP[c=red]", "PP[t=SUV] & PP[c=red]"} {
		if !found[want] {
			t.Fatalf("missing candidate %q in %v", want, found)
		}
	}
}

func TestGenerateDisjunctionNeedsFullCoverage(t *testing.T) {
	c := miniCorpus(t, testkit.Blobs(400, 7))
	g := &generator{snap: c.snap.Load(), deps: consulted{}, domains: testkit.Domains(), maxPPs: 4}
	// "x=1" has no PP and no domain; the disjunction cannot be covered.
	cands := g.gen(query.MustParse("t=SUV | x=1"))
	if len(cands) != 0 {
		t.Fatalf("uncoverable disjunction produced candidates: %v", cands)
	}
	// But a fully covered one can.
	cands = g.gen(query.MustParse("t=SUV | t=van"))
	found := false
	for _, e := range cands {
		if e.String() == "PP[t=SUV] | PP[t=van]" {
			found = true
		}
	}
	if !found {
		t.Fatal("covered disjunction missing")
	}
}

func TestGenerateRespectsMaxPPs(t *testing.T) {
	c := miniCorpus(t, testkit.Blobs(400, 8))
	g := &generator{snap: c.snap.Load(), deps: consulted{}, domains: testkit.Domains(), maxPPs: 2}
	cands := g.gen(query.MustParse("t=SUV & c=red & s>60 & s<65"))
	for _, e := range cands {
		if n := NumLeaves(e); n > 2 {
			t.Fatalf("candidate %s has %d leaves, max 2", e, n)
		}
	}
}

// TestGenerateAllImplied verifies the core soundness property 𝒫 ⇒ ℰ for the
// Table 3 style predicate, by exhaustive evaluation over the domains. We map
// each PP leaf back to its clause and check implication of the clause
// expression.
func TestGenerateAllImplied(t *testing.T) {
	c := miniCorpus(t, testkit.Blobs(400, 9))
	domains := testkit.Domains()
	g := &generator{snap: c.snap.Load(), deps: consulted{}, domains: domains, maxPPs: 4}
	preds := []string{
		"(t=SUV | t=van) & c!=white & s>60",
		"t=SUV & c=red",
		"t!=sedan",
		"s>55 & s<68",
		"t in {sedan, truck}",
	}
	for _, ps := range preds {
		p := query.MustParse(ps)
		for _, e := range g.gen(p) {
			impliedPred, err := exprToPred(e)
			if err != nil {
				t.Fatalf("%s: %v", e, err)
			}
			if !query.Implies(p, impliedPred, domains) {
				t.Errorf("candidate %s is NOT implied by %s", e, ps)
			}
		}
	}
}

// exprToPred maps an Expr back to the clause-level predicate it tests.
func exprToPred(e Expr) (query.Pred, error) {
	switch n := e.(type) {
	case *Leaf:
		return query.Parse(n.PP.Clause)
	case *Conj:
		kids := make([]query.Pred, len(n.Kids))
		for i, k := range n.Kids {
			p, err := exprToPred(k)
			if err != nil {
				return nil, err
			}
			kids[i] = p
		}
		return &query.And{Kids: kids}, nil
	case *Disj:
		kids := make([]query.Pred, len(n.Kids))
		for i, k := range n.Kids {
			p, err := exprToPred(k)
			if err != nil {
				return nil, err
			}
			kids[i] = p
		}
		return &query.Or{Kids: kids}, nil
	}
	return nil, nil
}

func TestCostConjunctionFormula(t *testing.T) {
	val := testkit.Blobs(1000, 10)
	c := miniCorpus(t, val)
	ppT, _ := c.Get("t=SUV")
	ppC, _ := c.Get("c=red")
	e := &Conj{Kids: []Expr{&Leaf{PP: ppT}, &Leaf{PP: ppC}}}
	p := costExpr(e, 1, 100, costOpts{})
	r1, r2 := ppT.Reduction(1), ppC.Reduction(1)
	wantR := r1 + r2 - r1*r2
	if math.Abs(p.reduction-wantR) > 1e-9 {
		t.Fatalf("conj reduction = %v, want %v (Eq. 9)", p.reduction, wantR)
	}
	c1, c2 := ppT.Cost(), ppC.Cost()
	wantC := math.Min(c1+(1-r1)*c2, c2+(1-r2)*c1)
	if math.Abs(p.cost-wantC) > 1e-9 {
		t.Fatalf("conj cost = %v, want %v (Eq. 9)", p.cost, wantC)
	}
}

func TestCostDisjunctionFormula(t *testing.T) {
	val := testkit.Blobs(1000, 11)
	c := miniCorpus(t, val)
	ppA, _ := c.Get("t=SUV")
	ppB, _ := c.Get("t=van")
	e := &Disj{Kids: []Expr{&Leaf{PP: ppA}, &Leaf{PP: ppB}}}
	p := costExpr(e, 1, 100, costOpts{})
	r1, r2 := ppA.Reduction(1), ppB.Reduction(1)
	if math.Abs(p.reduction-r1*r2) > 1e-9 {
		t.Fatalf("disj reduction = %v, want %v (Eq. 10)", p.reduction, r1*r2)
	}
	c1, c2 := ppA.Cost(), ppB.Cost()
	wantC := math.Min(c1+r1*c2, c2+r2*c1)
	if math.Abs(p.cost-wantC) > 1e-9 {
		t.Fatalf("disj cost = %v, want %v (Eq. 10)", p.cost, wantC)
	}
}

func TestRelaxedAccuracyImprovesReduction(t *testing.T) {
	val := testkit.Blobs(2000, 12)
	c := miniCorpus(t, val)
	pp, _ := c.Get("s>60")
	e := &Leaf{PP: pp}
	strict := costExpr(e, 1, 100, costOpts{})
	relaxed := costExpr(e, 0.9, 100, costOpts{})
	if relaxed.reduction <= strict.reduction {
		t.Fatalf("relaxing accuracy did not improve reduction: %v vs %v",
			relaxed.reduction, strict.reduction)
	}
}

func TestOptimizeEndToEnd(t *testing.T) {
	val := testkit.Blobs(2000, 13)
	c := miniCorpus(t, val)
	opt := New(c)
	dec, err := opt.Optimize(query.MustParse("t=SUV & c=red"), Options{
		Accuracy: 0.95, UDFCost: 100, Domains: testkit.Domains(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Inject {
		t.Fatal("expected injection for selective predicate with expensive UDF")
	}
	if dec.PlanCost >= dec.BaselineCost {
		t.Fatalf("plan cost %v not below baseline %v", dec.PlanCost, dec.BaselineCost)
	}
	if dec.NumCandidates < 3 {
		t.Fatalf("candidates = %d, want several", dec.NumCandidates)
	}
	// The conjunction of both PPs should win for such a selective predicate.
	if dec.Expr != "PP[t=SUV] & PP[c=red]" {
		t.Logf("chosen: %s (alternatives below)", dec.Expr)
		for _, a := range dec.Alternatives {
			t.Logf("  %s r=%.3f c=%.2f plan=%.2f", a.Expr, a.Reduction, a.Cost, a.PlanCost)
		}
	}
	if dec.Filter == nil || dec.NumPPs == 0 {
		t.Fatal("no compiled filter")
	}
}

func TestOptimizeFilterSoundness(t *testing.T) {
	// At a=1, no blob satisfying the predicate may be dropped on the
	// validation distribution.
	val := testkit.Blobs(2000, 14)
	c := miniCorpus(t, val)
	opt := New(c)
	pred := query.MustParse("(t=SUV | t=van) & c!=white")
	dec, err := opt.Optimize(pred, Options{Accuracy: 1, UDFCost: 100, Domains: testkit.Domains()})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Inject {
		t.Skip("no injection at a=1 for this corpus")
	}
	set := testkit.Set(t, val, "(t=SUV | t=van) & c!=white")
	for i, b := range set.Blobs {
		if !set.Labels[i] {
			continue
		}
		if pass, _ := dec.Filter.Test(b); !pass {
			t.Fatalf("filter dropped a positive blob %d at a=1", i)
		}
	}
}

func TestOptimizeNoInjectionWhenUDFCheap(t *testing.T) {
	val := testkit.Blobs(1000, 15)
	c := miniCorpus(t, val)
	opt := New(c)
	dec, err := opt.Optimize(query.MustParse("t=SUV"), Options{
		Accuracy: 0.95, UDFCost: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Inject {
		t.Fatalf("injected despite r <= c/u: plan=%v baseline=%v", dec.PlanCost, dec.BaselineCost)
	}
	if dec.Filter != nil {
		t.Fatal("filter should be nil when not injecting")
	}
}

func TestOptimizeUncoveredPredicate(t *testing.T) {
	opt := New(NewCorpus())
	dec, err := opt.Optimize(query.MustParse("z=1"), Options{Accuracy: 0.9, UDFCost: 100})
	if err != nil {
		t.Fatal(err)
	}
	if dec.Inject || dec.NumCandidates != 0 {
		t.Fatalf("empty corpus should not inject: %+v", dec)
	}
}

func TestOptimizeOptionValidation(t *testing.T) {
	opt := New(NewCorpus())
	if _, err := opt.Optimize(query.True{}, Options{Accuracy: 1.5}); err == nil {
		t.Fatal("expected error for accuracy > 1")
	}
	if _, err := opt.Optimize(query.True{}, Options{Accuracy: 0.9, UDFCost: -1}); err == nil {
		t.Fatal("expected error for negative UDF cost")
	}
}

func TestOptimizeNoPredicateQueryDependenceLoop(t *testing.T) {
	// A.2's no-predicate wrangling expands true into the complete-domain
	// disjunction of type PPs. Under Eq. 10's independence assumption the
	// optimizer estimates a sizable reduction — but the type PPs are
	// mutually exclusive, the textbook dependent case of A.5: at runtime
	// every blob passes its own type's PP and the observed reduction is ~0.
	// The feedback loop must flag the pairs and stop combining them.
	val := testkit.Blobs(1000, 16)
	c := miniCorpus(t, val)
	opt := New(c)
	dec, err := opt.Optimize(query.True{}, Options{
		Accuracy: 0.95, UDFCost: 100, Domains: testkit.Domains(), MaxPPs: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dec.NumCandidates == 0 {
		t.Fatal("no-predicate wrangling produced no candidates")
	}
	if !dec.Inject {
		t.Skip("optimizer declined; dependence loop untestable here")
	}
	// Iterate the observe/re-optimize loop: each round executes the chosen
	// plan, observes the (near-zero) real reduction, and flags the plan's
	// pairs. Within a few rounds no dependent combination remains.
	for round := 0; round < 5 && dec.Inject && dec.NumPPs > 1; round++ {
		dropped := 0
		for _, b := range val {
			if pass, _ := dec.Filter.Test(b); !pass {
				dropped++
			}
		}
		observed := float64(dropped) / float64(len(val))
		if observed > 0.05 {
			t.Fatalf("complete-domain disjunction dropped %v of blobs", observed)
		}
		opt.ObserveRuntime(dec, observed)
		if opt.DependentPairs() == 0 {
			t.Fatal("dependence not flagged for mutually exclusive PPs")
		}
		dec, err = opt.Optimize(query.True{}, Options{
			Accuracy: 0.95, UDFCost: 100, Domains: testkit.Domains(), MaxPPs: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if dec.Inject && dec.NumPPs > 1 {
		t.Fatalf("flagged pairs still combined after feedback rounds: %s", dec.Expr)
	}
}

func TestObserveRuntimeFlagsDependence(t *testing.T) {
	val := testkit.Blobs(2000, 17)
	c := miniCorpus(t, val)
	opt := New(c)
	pred := query.MustParse("t=SUV & c=red")
	dec, err := opt.Optimize(pred, Options{Accuracy: 0.95, UDFCost: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Inject || dec.NumPPs < 2 {
		t.Skip("need a multi-PP plan for this test")
	}
	// Report an observation wildly off the estimate.
	opt.ObserveRuntime(dec, dec.Reduction-0.5)
	if opt.DependentPairs() == 0 {
		t.Fatal("dependence not flagged")
	}
	// Re-optimizing must avoid combining the flagged pair.
	dec2, err := opt.Optimize(pred, Options{Accuracy: 0.95, UDFCost: 100})
	if err != nil {
		t.Fatal(err)
	}
	if dec2.Inject && dec2.NumPPs > 1 {
		t.Fatalf("flagged pair still combined: %s", dec2.Expr)
	}
	// A close observation must not flag.
	opt2 := New(miniCorpus(t, val))
	dec3, _ := opt2.Optimize(pred, Options{Accuracy: 0.95, UDFCost: 100})
	opt2.ObserveRuntime(dec3, dec3.Reduction+0.05)
	if opt2.DependentPairs() != 0 {
		t.Fatal("spurious dependence flag")
	}
}

func TestRewriteForRenames(t *testing.T) {
	p := query.MustParse("vehType=SUV & speed>60")
	rewritten := RewriteForRenames(p, map[string]string{"t": "vehType", "s": "speed"})
	if rewritten.String() != "t=SUV & s>60" {
		t.Fatalf("rewritten = %q", rewritten.String())
	}
	// Not/Or structure preserved.
	p2 := query.MustParse("!(vehType=SUV | speed>60)")
	r2 := RewriteForRenames(p2, map[string]string{"t": "vehType"})
	if !strings.Contains(r2.String(), "t=SUV") || !strings.Contains(r2.String(), "speed>60") {
		t.Fatalf("r2 = %q", r2.String())
	}
}

func TestCanonicalKey(t *testing.T) {
	a := CanonicalKey(query.MustParse("c=red & t=SUV"))
	b := CanonicalKey(query.MustParse("t=SUV & c=red"))
	if a != b {
		t.Fatalf("canonical keys differ: %q vs %q", a, b)
	}
	if a != "c=red & t=SUV" {
		t.Fatalf("canonical key = %q", a)
	}
}

func TestCompositePPPreferred(t *testing.T) {
	// Train a composite PP for the conjunction with a much better cost than
	// any decomposition; the generator should include it and the optimizer
	// should pick it.
	val := testkit.Blobs(2000, 18)
	c := miniCorpus(t, val)
	c.Add(testkit.ExactPP(t, "c=red & t=SUV", val, 0.8))
	opt := New(c)
	dec, err := opt.Optimize(query.MustParse("t=SUV & c=red"), Options{
		Accuracy: 0.95, UDFCost: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Inject {
		t.Fatal("expected injection")
	}
	found := false
	for _, a := range dec.Alternatives {
		if a.Expr == "PP[c=red & t=SUV]" {
			found = true
		}
	}
	if !found {
		t.Fatal("composite PP not among candidates")
	}
}

func TestGenerateComplementConjunction(t *testing.T) {
	// Table 10's alternates: t=SUV ∨ t=van also rewrites to the complement
	// conjunction PP[t!=sedan] & PP[t!=truck] (via negation reuse) and to
	// the single best ≠ leaf.
	c := miniCorpus(t, testkit.Blobs(600, 50))
	g := &generator{snap: c.snap.Load(), deps: consulted{}, domains: testkit.Domains(), maxPPs: 4}
	cands := g.gen(query.MustParse("t=SUV | t=van"))
	found := map[string]bool{}
	for _, e := range cands {
		found[e.String()] = true
	}
	if !found["PP[t=SUV] | PP[t=van]"] {
		t.Fatalf("missing disjunction plan: %v", found)
	}
	if !found["PP[t!=sedan] & PP[t!=truck]"] {
		t.Fatalf("missing complement conjunction: %v", found)
	}
	single := found["PP[t!=sedan]"] || found["PP[t!=truck]"]
	if !single {
		t.Fatalf("missing single-≠ alternate: %v", found)
	}
	// Soundness of the new candidates.
	domains := testkit.Domains()
	p := query.MustParse("t=SUV | t=van")
	for _, e := range cands {
		ip, err := exprToPred(e)
		if err != nil {
			t.Fatal(err)
		}
		if !query.Implies(p, ip, domains) {
			t.Errorf("candidate %s not implied", e)
		}
	}
}

func TestGenerateComplementNeedsFullDomainCoverage(t *testing.T) {
	// With a domain value whose = PP is missing (so ≠ cannot be derived),
	// the complement rewrite must not appear.
	val := testkit.Blobs(600, 51)
	c := NewCorpus()
	// Only two type PPs: SUV and van — sedan/truck PPs absent.
	for _, typ := range []string{"SUV", "van"} {
		c.Add(testkit.ExactPP(t, "t="+typ, val, 1))
	}
	g := &generator{snap: c.snap.Load(), deps: consulted{}, domains: testkit.Domains(), maxPPs: 4}
	for _, e := range g.gen(query.MustParse("t=SUV | t=van")) {
		if strings.Contains(e.String(), "!=") {
			t.Fatalf("complement plan %s should need all ≠ PPs", e)
		}
	}
}

func TestCorpusSaveLoad(t *testing.T) {
	val := testkit.Blobs(600, 52)
	// Build a corpus with real trainable PPs (test scorers are not
	// gob-registered; use SVMs over the mini blobs).
	c := NewCorpus()
	for i, clause := range []string{"t=SUV", "t=van", "c=red"} {
		set := testkit.Set(t, val, clause)
		train, v, _ := set.Split(mathx.NewRNG(uint64(i)+400), 0.7, 0.3)
		pp, err := core.Train(clause, train, v, core.TrainConfig{Approach: "Raw+SVM", Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		c.Add(pp)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCorpus(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != c.Size() {
		t.Fatalf("size mismatch: %d vs %d", loaded.Size(), c.Size())
	}
	// The reloaded corpus must optimize identically.
	pred := query.MustParse("(t=SUV | t=van) & c=red")
	d1, err := New(c).Optimize(pred, Options{Accuracy: 0.95, UDFCost: 100})
	if err != nil {
		t.Fatal(err)
	}
	d2, err := New(loaded).Optimize(pred, Options{Accuracy: 0.95, UDFCost: 100})
	if err != nil {
		t.Fatal(err)
	}
	if d1.Expr != d2.Expr || d1.Reduction != d2.Reduction {
		t.Fatalf("decisions differ after reload: %q/%v vs %q/%v",
			d1.Expr, d1.Reduction, d2.Expr, d2.Reduction)
	}
	// Negation reuse still works on the reloaded corpus.
	if _, ok := loaded.Lookup(query.MustParse("t!=SUV").(*query.Clause)); !ok {
		t.Fatal("negation reuse broken after reload")
	}
}

func TestLoadCorpusGarbage(t *testing.T) {
	if _, err := LoadCorpus(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("expected error")
	}
}

func TestOptimizeUnsatisfiablePredicate(t *testing.T) {
	opt := New(NewCorpus()) // even an empty corpus suffices
	dec, err := opt.Optimize(query.MustParse("s>60 & s<50"), Options{
		Accuracy: 1, UDFCost: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Inject || dec.Reduction != 1 {
		t.Fatalf("unsatisfiable predicate not short-circuited: %+v", dec)
	}
	if pass, cost := dec.Filter.Test(testkit.Blobs(1, 1)[0]); pass || cost != 0 {
		t.Fatalf("drop-all filter wrong: pass=%v cost=%v", pass, cost)
	}
}

func TestOptimizeSimplifiesBeforeMatching(t *testing.T) {
	// A duplicated clause and a true conjunct must not confuse matching.
	val := testkit.Blobs(500, 55)
	opt := New(miniCorpus(t, val))
	dec, err := opt.Optimize(query.MustParse("t=SUV & t=SUV & true"), Options{
		Accuracy: 0.95, UDFCost: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Inject || dec.Expr != "PP[t=SUV]" {
		t.Fatalf("decision = %+v", dec)
	}
}

// TestOptimizeSoundnessQuick fuzzes random predicates against the mini
// corpus and verifies, for every injected decision:
//  1. soundness — the expression is implied by the predicate;
//  2. the compiled filter's per-blob cost never exceeds the sum of its
//     leaves' costs;
//  3. at a=1, no blob satisfying the predicate on the *corpus validation
//     distribution* is dropped.
func TestOptimizeSoundnessQuick(t *testing.T) {
	val := testkit.Blobs(1500, 60)
	opt := New(miniCorpus(t, val))
	domains := testkit.Domains()
	rng := mathx.NewRNG(61)
	for trial := 0; trial < 60; trial++ {
		pred := query.MustParse(testkit.RandomPred(rng, 1+rng.Intn(3)))
		dec, err := opt.Optimize(pred, Options{Accuracy: 1, UDFCost: 100, Domains: domains})
		if err != nil {
			t.Fatalf("%s: %v", pred, err)
		}
		if _, unsat := Canonicalize(pred).(query.False); !dec.Inject || unsat {
			continue // an unsatisfiable predicate drops all: TestOptimizeUnsatisfiablePredicate
		}
		// 1. Soundness of the chosen expression.
		exprPred, err := query.Parse(strings.NewReplacer("PP[", "(", "]", ")").Replace(dec.Expr))
		if err != nil {
			t.Fatalf("cannot parse decision expr %q: %v", dec.Expr, err)
		}
		if !query.Implies(pred, exprPred, domains) {
			t.Fatalf("decision %q not implied by %s", dec.Expr, pred)
		}
		// 2. Cost bound and 3. zero false negatives at a=1.
		leafCostSum := 0.0
		for range dec.LeafClauses() {
			leafCostSum += 1.3 // max leaf cost in the mini corpus (speed PPs)
		}
		for i, b := range val {
			ok, evalErr := pred.Eval(testkit.Lookup(b))
			if evalErr != nil {
				continue
			}
			pass, cost := dec.Filter.Test(b)
			if cost > leafCostSum+1e-9 {
				t.Fatalf("%s: filter cost %v exceeds leaf sum %v", pred, cost, leafCostSum)
			}
			if ok && !pass {
				t.Fatalf("%s: dropped satisfying blob %d at a=1 (expr %s)", pred, i, dec.Expr)
			}
		}
	}
}
