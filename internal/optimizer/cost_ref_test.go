package optimizer

// The reference for cost.go's dynamic program: the plain recursion it
// replaced, kept verbatim (names prefixed ref) so the differential tests
// below can hold the DP to it bit for bit. It re-folds an n-ary node once per
// (first kid, split) path — 18, 513, 18 504 folds for 2, 3, 4 kids — which is
// why it lives in a test file.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"

	"probpred/internal/core"
	"probpred/internal/data"
	"probpred/internal/mathx"
	"probpred/internal/query"
	"probpred/internal/svm"
)

// refOpts is costOpts for the reference, plus reverseFirst: explore which kid
// joins the fold first from the last kid to the first. No production path has
// that switch; TestDifferentialCatchesIterationOrder uses it to show the
// differential comparison notices a changed tie-break order.
type refOpts struct {
	costOpts
	reverseFirst bool
}

func refCostExpr(e Expr, a, u float64, opts refOpts) *plan {
	memo := map[nodeKey]*plan{}
	return refEvalExpr(e, a, u, opts, memo)
}

func refEvalExpr(e Expr, a, u float64, opts refOpts, memo map[nodeKey]*plan) *plan {
	key := nodeKey{node: e, acc: int64(math.Round(a * 1e6))}
	if p, ok := memo[key]; ok {
		return p
	}
	var out *plan
	switch n := e.(type) {
	case *Leaf:
		out = &plan{
			leaf:      n.PP,
			accuracy:  a,
			cost:      n.PP.Cost(),
			reduction: n.PP.Reduction(a),
		}
	case *Conj:
		out = refEvalNary(n.Kids, a, u, true, opts, memo)
	case *Disj:
		out = refEvalNary(n.Kids, a, u, false, opts, memo)
	}
	memo[key] = out
	return out
}

func refEvalNary(kids []Expr, a, u float64, conj bool, opts refOpts, memo map[nodeKey]*plan) *plan {
	if len(kids) == 1 {
		return refEvalExpr(kids[0], a, u, opts, memo)
	}
	var best *plan
	firsts := len(kids)
	if opts.fixedOrder {
		firsts = 1 // written order only
	}
	for i := 0; i < firsts; i++ {
		first := i
		if opts.reverseFirst {
			first = firsts - 1 - i
		}
		rest := make([]Expr, 0, len(kids)-1)
		rest = append(rest, kids[:first]...)
		rest = append(rest, kids[first+1:]...)
		for _, t := range refSplitGrid(conj, opts) {
			a1, a2 := refSplitBudget(a, t, conj)
			p1 := refEvalExpr(kids[first], a1, u, opts, memo)
			p2 := refEvalNary(rest, a2, u, conj, opts, memo)
			combined := refCombine(p1, p2, conj, opts)
			if best == nil || planCost(combined, u) < planCost(best, u) {
				best = combined
			}
		}
	}
	return best
}

func refSplitGrid(conj bool, opts refOpts) []float64 {
	if !conj {
		return budgetGrid[:1]
	}
	if opts.uniformBudget {
		return []float64{0.5}
	}
	return budgetGrid[:]
}

func refSplitBudget(a, t float64, conj bool) (a1, a2 float64) {
	if conj {
		return math.Pow(a, t), math.Pow(a, 1-t)
	}
	return a, a
}

func refCombine(p1, p2 *plan, conj bool, opts refOpts) *plan {
	var r, cForward, cReverse float64
	if conj {
		r = p1.reduction + p2.reduction - p1.reduction*p2.reduction
		cForward = p1.cost + (1-p1.reduction)*p2.cost
		cReverse = p2.cost + (1-p2.reduction)*p1.cost
	} else {
		r = p1.reduction * p2.reduction
		cForward = p1.cost + p1.reduction*p2.cost
		cReverse = p2.cost + p2.reduction*p1.cost
	}
	kids := []*plan{p1, p2}
	cost := cForward
	if cReverse < cForward && !opts.fixedOrder {
		kids = []*plan{p2, p1}
		cost = cReverse
	}
	var a float64
	if conj {
		a = p1.accuracy * p2.accuracy
	} else {
		a = p1.accuracy + p2.accuracy - p1.accuracy*p2.accuracy
	}
	return &plan{conj: conj, kids: kids, accuracy: a, cost: cost, reduction: r}
}

// refDescribeLeafAccuracies is the rendering Optimize used with the
// reference recursion.
func refDescribeLeafAccuracies(p *plan) string {
	var parts []string
	var walk func(n *plan)
	walk = func(n *plan) {
		if n.leaf != nil {
			parts = append(parts, fmt.Sprintf("PP[%s]@%.3f", n.leaf.Clause, n.accuracy))
			return
		}
		for _, k := range n.kids {
			walk(k)
		}
	}
	walk(p)
	return strings.Join(parts, ", ")
}

// refOptimize is Optimize as it stood over the reference recursion, from
// candidate generation to the decision's fields (no spans, no metrics, no
// search profile): the Decision the DP-backed Optimize must reproduce.
func refOptimize(o *Optimizer, pred query.Pred, opts Options) *Decision {
	opts.fill()
	pred = Canonicalize(pred)
	g := &generator{snap: o.corpus.snap.Load(), deps: consulted{}, domains: opts.Domains, maxPPs: opts.MaxPPs, skip: o.dependentPairs()}
	candidates := g.gen(pred)
	dec := &Decision{
		BaselineCost:  opts.UDFCost,
		NumCandidates: len(candidates),
		PlanCost:      opts.UDFCost,
		CorpusVersion: g.snap.version,
		consulted:     g.deps.sorted(),
	}
	copts := refOpts{costOpts: costOpts{uniformBudget: opts.DisableBudgetSearch, fixedOrder: opts.DisableOrderSearch}}
	var bestPlan *plan
	var bestExpr Expr
	for _, e := range candidates {
		p := refCostExpr(e, opts.Accuracy, opts.UDFCost, copts)
		dec.Alternatives = append(dec.Alternatives, Alternative{
			Expr:           e.String(),
			Cost:           p.cost,
			Reduction:      p.reduction,
			PlanCost:       planCost(p, opts.UDFCost),
			LeafAccuracies: refDescribeLeafAccuracies(p),
		})
		if bestPlan == nil || planCost(p, opts.UDFCost) < planCost(bestPlan, opts.UDFCost) {
			bestPlan, bestExpr = p, e
		}
	}
	sort.SliceStable(dec.Alternatives, func(i, j int) bool {
		if dec.Alternatives[i].PlanCost != dec.Alternatives[j].PlanCost {
			return dec.Alternatives[i].PlanCost < dec.Alternatives[j].PlanCost
		}
		return dec.Alternatives[i].Expr < dec.Alternatives[j].Expr
	})
	if bestPlan != nil && planCost(bestPlan, opts.UDFCost) < opts.UDFCost {
		dec.Inject = true
		dec.Expr = bestExpr.String()
		dec.LeafAccuracies = refDescribeLeafAccuracies(bestPlan)
		dec.Cost = bestPlan.cost
		dec.Reduction = bestPlan.reduction
		dec.PlanCost = planCost(bestPlan, opts.UDFCost)
		dec.Filter = compilePlan(bestPlan, bestExpr.String())
		for _, pp := range bestExpr.Leaves(nil) {
			dec.leaves = append(dec.leaves, pp.Clause)
		}
		dec.NumPPs = len(dec.leaves)
	}
	return dec
}

// diffPlans reports the first difference between two costed plans, node by
// node: shape, leaf identity, kid order, and the bits of accuracy, cost and
// reduction. Empty means equal.
func diffPlans(want, got *plan, path string) string {
	if want == nil || got == nil {
		if want != got {
			return fmt.Sprintf("%s: one plan is nil (want %v, got %v)", path, want != nil, got != nil)
		}
		return ""
	}
	if want.leaf != got.leaf || want.conj != got.conj || len(want.kids) != len(got.kids) {
		return fmt.Sprintf("%s: node shape differs (leaf %p vs %p, conj %v vs %v, %d vs %d kids)",
			path, want.leaf, got.leaf, want.conj, got.conj, len(want.kids), len(got.kids))
	}
	for _, f := range [...]struct {
		name      string
		want, got float64
	}{
		{"accuracy", want.accuracy, got.accuracy},
		{"cost", want.cost, got.cost},
		{"reduction", want.reduction, got.reduction},
	} {
		if math.Float64bits(f.want) != math.Float64bits(f.got) {
			return fmt.Sprintf("%s: %s bits differ: want %v (%#x), got %v (%#x)",
				path, f.name, f.want, math.Float64bits(f.want), f.got, math.Float64bits(f.got))
		}
	}
	for i := range want.kids {
		if d := diffPlans(want.kids[i], got.kids[i], fmt.Sprintf("%s.%d", path, i)); d != "" {
			return d
		}
	}
	return ""
}

// diffCompiled compares two executable filters leaf by leaf, in order.
func diffCompiled(want, got compiledNode, path string) string {
	kids := func(n compiledNode) (conj bool, kids []compiledNode) {
		switch n := n.(type) {
		case *compiledConj:
			return true, n.kids
		case *compiledDisj:
			return false, n.kids
		}
		return false, nil
	}
	w, wLeaf := want.(*compiledLeaf)
	g, gLeaf := got.(*compiledLeaf)
	if wLeaf != gLeaf {
		return path + ": node kind differs"
	}
	if wLeaf {
		if w.pp != g.pp || math.Float64bits(w.threshold) != math.Float64bits(g.threshold) ||
			math.Float64bits(w.cost) != math.Float64bits(g.cost) {
			return fmt.Sprintf("%s: leaf differs: want %s th=%v, got %s th=%v",
				path, w.pp.Clause, w.threshold, g.pp.Clause, g.threshold)
		}
		return ""
	}
	wConj, wKids := kids(want)
	gConj, gKids := kids(got)
	if wConj != gConj || len(wKids) != len(gKids) {
		return path + ": node kind or arity differs"
	}
	for i := range wKids {
		if d := diffCompiled(wKids[i], gKids[i], fmt.Sprintf("%s.%d", path, i)); d != "" {
			return d
		}
	}
	return ""
}

// diffDecisions compares everything a Decision says about its plan: the
// chosen expression, its numbers' bits, the executable filter, and every
// alternative in order. Search (a profile) is not part of the plan.
func diffDecisions(want, got *Decision) string {
	bitsDiffer := func(a, b float64) bool { return math.Float64bits(a) != math.Float64bits(b) }
	switch {
	case want.Inject != got.Inject:
		return fmt.Sprintf("Inject %v vs %v", want.Inject, got.Inject)
	case want.Expr != got.Expr:
		return fmt.Sprintf("Expr %q vs %q", want.Expr, got.Expr)
	case want.LeafAccuracies != got.LeafAccuracies:
		return fmt.Sprintf("LeafAccuracies %q vs %q", want.LeafAccuracies, got.LeafAccuracies)
	case bitsDiffer(want.Cost, got.Cost), bitsDiffer(want.Reduction, got.Reduction),
		bitsDiffer(want.PlanCost, got.PlanCost), bitsDiffer(want.BaselineCost, got.BaselineCost):
		return fmt.Sprintf("cost/reduction/plan/baseline (%v %v %v %v) vs (%v %v %v %v)",
			want.Cost, want.Reduction, want.PlanCost, want.BaselineCost, got.Cost, got.Reduction, got.PlanCost, got.BaselineCost)
	case want.NumCandidates != got.NumCandidates, want.NumPPs != got.NumPPs, want.CorpusVersion != got.CorpusVersion:
		return fmt.Sprintf("candidates/PPs/version (%d %d %d) vs (%d %d %d)",
			want.NumCandidates, want.NumPPs, want.CorpusVersion, got.NumCandidates, got.NumPPs, got.CorpusVersion)
	case fmt.Sprint(want.leaves) != fmt.Sprint(got.leaves):
		return fmt.Sprintf("leaves %v vs %v", want.leaves, got.leaves)
	case fmt.Sprint(want.consulted) != fmt.Sprint(got.consulted):
		return fmt.Sprintf("consulted %v vs %v", want.consulted, got.consulted)
	case len(want.Alternatives) != len(got.Alternatives):
		return fmt.Sprintf("%d vs %d alternatives", len(want.Alternatives), len(got.Alternatives))
	case (want.Filter == nil) != (got.Filter == nil):
		return "one decision has no filter"
	}
	for i, w := range want.Alternatives {
		g := got.Alternatives[i]
		if w.Expr != g.Expr || w.LeafAccuracies != g.LeafAccuracies ||
			bitsDiffer(w.Cost, g.Cost) || bitsDiffer(w.Reduction, g.Reduction) || bitsDiffer(w.PlanCost, g.PlanCost) {
			return fmt.Sprintf("alternative %d: %+v vs %+v", i, w, g)
		}
	}
	if want.Filter != nil {
		if want.Filter.name != got.Filter.name {
			return fmt.Sprintf("filter name %q vs %q", want.Filter.name, got.Filter.name)
		}
		return diffCompiled(want.Filter.node, got.Filter.node, "filter")
	}
	return ""
}

// The benchmark-shaped corpus: the 32 simple clauses of §8.2, each a Raw+SVM
// PP trained on generated traffic rows, as benchmark/fixture.go builds for
// adhoc_cold. Trained once per test binary.
var trafCorpus = sync.OnceValues(func() (*Corpus, error) {
	const seed = 42
	var clauses []string
	for _, t := range data.VehicleTypes {
		clauses = append(clauses, "t="+t)
	}
	for _, c := range data.VehicleColors {
		clauses = append(clauses, "c="+c)
	}
	for _, i := range data.Intersections {
		clauses = append(clauses, "i="+i, "o="+i)
	}
	for _, v := range []string{"40", "45", "50", "55", "60", "65"} {
		clauses = append(clauses, "s>"+v)
	}
	for _, v := range []string{"40", "45", "50", "65", "70"} {
		clauses = append(clauses, "s<"+v)
	}
	train := data.Traffic(data.TrafficConfig{Rows: 3000, Seed: seed})
	corpus := NewCorpus()
	for i, clause := range clauses {
		set, err := data.TrafficSet(train, query.MustParse(clause))
		if err != nil {
			return nil, err
		}
		tr, val, _ := set.Split(mathx.NewRNG(seed^uint64(i)), 0.8, 0.2)
		pp, err := core.Train(clause, tr, val, core.TrainConfig{
			Approach: "Raw+SVM", Seed: seed + uint64(i), SVM: svm.Config{Epochs: 15},
		})
		if err != nil {
			return nil, err
		}
		corpus.Add(pp)
	}
	return corpus, nil
})

func mustTrafCorpus(tb testing.TB) *Corpus {
	tb.Helper()
	c, err := trafCorpus()
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// traf20Preds is the §8.2 query mix (internal/bench.TRAF20, which this
// package cannot import).
var traf20Preds = []string{
	"t=SUV", "s>60", "c=red", "c!=white", "i=pt303", "s<40", "s>60 & s<65",
	"t in {sedan, truck}", "c in {red, silver}", "t=van & c=black", "s>50 & t=truck",
	"o=pt211 & c!=white", "t!=sedan & s>55", "i=pt303 & (o=pt335 | o=pt306)",
	"t=SUV & s>60 & s<70", "c=white & i=pt401 & s<45", "(t=truck | t=van) & s>55",
	"t=SUV & c=red & s>60", "c=silver & i=pt306 & o=pt501 & s>40", "t=SUV & c=red & i=pt335 & o=pt211",
}

// adhocShapedPreds emits n distinct 3–4-clause predicates in the shapes of
// the benchmark's adhoc_cold mix: a conjunction over distinct columns in
// which one factor may be a two-value disjunction, every other one forced to
// a 4-clause or disjunctive shape.
func adhocShapedPreds(n int) []query.Pred {
	rng := mathx.NewRNG(42 ^ 0xad0c)
	cats := map[string][]string{
		"t": data.VehicleTypes, "c": data.VehicleColors,
		"i": data.Intersections, "o": data.Intersections,
	}
	speed := []string{"s>40", "s>45", "s>50", "s>55", "s>60", "s>65", "s<40", "s<45", "s<50", "s<65", "s<70"}
	factor := func(col string, disj bool) string {
		if col == "s" {
			return speed[rng.Intn(len(speed))]
		}
		vals := cats[col]
		a := rng.Intn(len(vals))
		if !disj {
			return col + "=" + vals[a]
		}
		b := (a + 1 + rng.Intn(len(vals)-1)) % len(vals)
		return "(" + col + "=" + vals[a] + " | " + col + "=" + vals[b] + ")"
	}
	seen := map[string]bool{}
	var out []query.Pred
	for len(out) < n {
		nf, disj := 3, false
		if len(out)%2 == 1 {
			if rng.Intn(2) == 0 {
				nf = 4
			} else {
				disj = true
			}
		}
		cols := []string{"t", "c", "s", "i", "o"}
		perm := rng.Perm(len(cols))
		text := ""
		for k := 0; k < nf; k++ {
			col := cols[perm[k]]
			if k > 0 {
				text += " & "
			}
			text += factor(col, disj && col != "s")
			if col != "s" {
				disj = false
			}
		}
		pred := query.MustParse(text)
		if key := CanonicalKey(pred); !seen[key] {
			seen[key] = true
			out = append(out, pred)
		}
	}
	return out
}

// randomTree builds a Conj/Disj tree with 1–4 leaves over pps: nested up to
// two levels, kids drawn with replacement so the same PP — and now and then
// the very same *Leaf — appears twice.
func randomTree(rng *mathx.RNG, pps []*core.PP, leaves []*Leaf) Expr {
	leaf := func() Expr {
		if rng.Intn(4) == 0 {
			return leaves[rng.Intn(len(leaves))] // shared node: one memo entry for two kids
		}
		return &Leaf{PP: pps[rng.Intn(len(pps))]}
	}
	node := func(kids []Expr) Expr {
		if len(kids) == 1 && rng.Intn(2) == 0 {
			return kids[0]
		}
		if rng.Intn(3) == 0 {
			return &Disj{Kids: kids}
		}
		return &Conj{Kids: kids}
	}
	n := 1 + rng.Intn(4)
	if n <= 2 || rng.Intn(2) == 0 {
		kids := make([]Expr, n)
		for i := range kids {
			kids[i] = leaf()
		}
		return node(kids)
	}
	// Nested: split the n leaves into an inner node and the outer's own.
	inner := 2 + rng.Intn(n-2)
	in := make([]Expr, inner)
	for i := range in {
		in[i] = leaf()
	}
	kids := []Expr{node(in)}
	for i := inner; i < n; i++ {
		kids = append(kids, leaf())
	}
	if rng.Intn(2) == 0 {
		kids[0], kids[len(kids)-1] = kids[len(kids)-1], kids[0]
	}
	return node(kids)
}

var (
	diffAccuracies = []float64{0.9, 0.95, 0.99, 1}
	diffModes      = []struct {
		name          string
		budget, order bool // DisableBudgetSearch, DisableOrderSearch
	}{{"default", false, false}, {"uniform-budget", true, false}, {"fixed-order", false, true}}
)

// TestCostingMatchesReferenceOnRandomTrees holds the DP to the reference
// recursion on expression trees the generator would not necessarily emit.
func TestCostingMatchesReferenceOnRandomTrees(t *testing.T) {
	corpus := mustTrafCorpus(t)
	snap := corpus.snap.Load()
	var pps []*core.PP
	for _, key := range snap.clauses {
		pps = append(pps, snap.pps[key].pp)
	}
	rng := mathx.NewRNG(2300)
	shared := make([]*Leaf, 6)
	for i := range shared {
		shared[i] = &Leaf{PP: pps[rng.Intn(len(pps))]}
	}
	trees := 2400
	if raceEnabled {
		trees = 300
	}
	for n := 0; n < trees; n++ {
		e := randomTree(rng, pps, shared)
		for _, a := range diffAccuracies {
			for _, m := range diffModes {
				opts := costOpts{uniformBudget: m.budget, fixedOrder: m.order}
				want := refCostExpr(e, a, 40, refOpts{costOpts: opts})
				got := costExpr(e, a, 40, opts)
				if d := diffPlans(want, got, "plan"); d != "" {
					t.Fatalf("tree %d %q at accuracy %v, %s: %s", n, e.String(), a, m.name, d)
				}
			}
		}
	}
}

// TestCostingMatchesReferenceOnWideNodes runs nodes past the usual
// four-kid bound (MaxPPs 6): same code, longer masks.
func TestCostingMatchesReferenceOnWideNodes(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("the reference recursion needs 832 725 folds per 5-kid node")
	}
	corpus := mustTrafCorpus(t)
	leaf := func(clause string) Expr {
		pp, ok := corpus.Get(clause)
		if !ok {
			t.Fatalf("no PP for %q", clause)
		}
		return &Leaf{PP: pp}
	}
	five := &Conj{Kids: []Expr{leaf("t=SUV"), leaf("c=red"), leaf("s>60"), leaf("i=pt335"), leaf("o=pt211")}}
	nested := &Conj{Kids: []Expr{leaf("s<70"), &Disj{Kids: []Expr{leaf("t=van"), leaf("t=truck"), leaf("t=SUV")}}, leaf("c=black"), leaf("i=pt303"), leaf("s>40")}}
	for _, e := range []Expr{five, nested} {
		for _, a := range []float64{0.9, 1} {
			want := refCostExpr(e, a, 40, refOpts{})
			got := costExpr(e, a, 40, costOpts{})
			if d := diffPlans(want, got, "plan"); d != "" {
				t.Fatalf("%q at accuracy %v: %s", e.String(), a, d)
			}
		}
	}
}

// TestOptimizeMatchesReferenceDecisions: over TRAF20 and the 512 ad-hoc
// shapes, at every accuracy and ablation mode, each candidate's plan tree and
// the whole Decision equal what the reference recursion produced. MaxPPs 6
// admits the complement-conjunction candidates that 4 filters out.
func TestOptimizeMatchesReferenceDecisions(t *testing.T) {
	corpus := mustTrafCorpus(t)
	opt := New(corpus)
	domains := data.TrafficDomains()
	var preds []query.Pred
	for _, s := range traf20Preds {
		preds = append(preds, query.MustParse(s))
	}
	nTraf := len(preds)
	preds = append(preds, adhocShapedPreds(512)...)
	// The reference costs a 4-kid candidate in milliseconds, so the full
	// cross product runs on TRAF20 and every eighth ad-hoc predicate, and the
	// remaining ad-hoc predicates run at the benchmark's accuracy alone.
	for i, pred := range preds {
		full := i < nTraf || i%8 == 0
		if raceEnabled && !full {
			continue
		}
		for _, a := range diffAccuracies {
			if !full && a != 0.95 {
				continue
			}
			for _, m := range diffModes {
				if !full && m.name != "default" {
					continue
				}
				for _, maxPPs := range []int{4, 6} {
					if maxPPs == 6 && i >= nTraf {
						continue
					}
					opts := Options{Accuracy: a, UDFCost: 40, Domains: domains, MaxPPs: maxPPs,
						DisableBudgetSearch: m.budget, DisableOrderSearch: m.order}
					where := fmt.Sprintf("%q accuracy %v %s MaxPPs %d", pred.String(), a, m.name, maxPPs)
					g := &generator{snap: corpus.snap.Load(), deps: consulted{}, domains: domains, maxPPs: maxPPs}
					copts := costOpts{uniformBudget: m.budget, fixedOrder: m.order}
					for _, e := range g.gen(Canonicalize(pred)) {
						want := refCostExpr(e, a, 40, refOpts{costOpts: copts})
						got := costExpr(e, a, 40, copts)
						if d := diffPlans(want, got, "plan"); d != "" {
							t.Fatalf("%s candidate %q: %s", where, e.String(), d)
						}
					}
					got, err := opt.Optimize(pred, opts)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					if d := diffDecisions(refOptimize(opt, pred, opts), got); d != "" {
						t.Fatalf("%s: decision differs: %s", where, d)
					}
				}
			}
		}
	}
}

// TestDifferentialCatchesIterationOrder shows the comparison above has teeth:
// a recursion that differs from the reference only in trying the LAST kid
// first resolves plan-cost ties the other way, and diffPlans says so.
func TestDifferentialCatchesIterationOrder(t *testing.T) {
	corpus := mustTrafCorpus(t)
	g := &generator{snap: corpus.snap.Load(), deps: consulted{}, domains: data.TrafficDomains(), maxPPs: 4}
	caught := 0
	for _, s := range traf20Preds {
		for _, e := range g.gen(Canonicalize(query.MustParse(s))) {
			reversed := refCostExpr(e, 0.95, 40, refOpts{reverseFirst: true})
			if diffPlans(reversed, costExpr(e, 0.95, 40, costOpts{}), "plan") != "" {
				caught++
			}
		}
	}
	if caught == 0 {
		t.Fatal("reversing the first-kid loop changed no TRAF20 candidate plan: the differential test would not notice a tie-break change")
	}
	t.Logf("reversed first-kid order changes %d TRAF20 candidate plans", caught)
}
