package optimizer

import (
	"sort"

	"probpred/internal/core"
	"probpred/internal/query"
)

// generate implements §6.1: produce candidate logical expressions ℰ over the
// corpus PPs such that 𝒫 ⇒ ℰ, applying the rewrite rules
//
//	R1: p ∧ (𝒫/p) ⇒ PP_p            (any conjunct's PP is necessary)
//	R2: PP_{p∧q} ⇒ PP_p ∧ PP_q       (decompose conjunctions)
//	R3: PP_{p∨q} ⇒ PP_p ∨ PP_q       (decompose disjunctions)
//	R4: p ∧ (𝒫/p) ⇒ ¬PP_{¬p}        (via §5.6 negation reuse in Lookup)
//
// together with the wrangler rewrites of A.2, greedily bounded: at most
// maxPPs leaves per expression (the paper's constant k), and R2/R3 are
// applied only when the composite clause has no PP of its own or a simpler
// clause performs better (smaller c/r(1]).
type generator struct {
	// snap is the one corpus snapshot the search consults, and deps the
	// dependency keys it has asked it about.
	snap    *snapshot
	deps    consulted
	domains map[string][]query.Value
	maxPPs  int
	// skip flags clause-pair keys known to be dependent (A.5); expressions
	// containing a flagged pair are suppressed.
	skip map[string]bool
	// generated / deduped profile the run for SearchStats: raw expressions
	// produced by the rewrite rules, and how many of them were exact
	// duplicates of an earlier candidate.
	generated, deduped int
	// names holds the rendering of each candidate gen returned, index for
	// index: gen needs it to deduplicate and to order, and the Decision
	// reports it, so it is rendered once.
	names []string
}

// gen returns the candidate expressions implied by p, deduplicated.
func (g *generator) gen(p query.Pred) []Expr {
	cands := g.genRaw(query.NNF(p))
	g.generated = len(cands)
	type ranked struct {
		expr  Expr
		name  string
		ratio float64
	}
	seen := map[string]bool{}
	var kept []ranked
	for _, e := range cands {
		if NumLeaves(e) > g.maxPPs {
			continue
		}
		if g.hasDependentPair(e) {
			continue
		}
		name := e.String()
		if seen[name] {
			g.deduped++
			continue
		}
		seen[name] = true
		kept = append(kept, ranked{expr: e, name: name, ratio: intrinsicRatio(e)})
	}
	// Deterministic order, best intrinsic cost/reduction ratio first.
	sort.SliceStable(kept, func(a, b int) bool {
		if kept[a].ratio != kept[b].ratio {
			return kept[a].ratio < kept[b].ratio
		}
		return kept[a].name < kept[b].name
	})
	out := make([]Expr, len(kept))
	g.names = make([]string, len(kept))
	for i, k := range kept {
		out[i], g.names[i] = k.expr, k.name
	}
	return out
}

func (g *generator) genRaw(p query.Pred) []Expr {
	switch n := p.(type) {
	case *query.Clause:
		return g.genClause(n)
	case *query.And:
		return g.genAnd(n)
	case *query.Or:
		return g.genOr(n)
	case query.True:
		return g.genTrue()
	case *query.Not:
		// NNF leaves ¬ only around True; nothing to inject.
		return nil
	}
	return nil
}

// genClause finds PPs implied by one simple clause: a direct or
// negation-derived PP, relaxed-comparison PPs (A.2), and the ≠→∨= rewrite.
func (g *generator) genClause(cl *query.Clause) []Expr {
	var out []Expr
	if pp, ok := g.snap.lookup(cl, g.deps); ok {
		out = append(out, &Leaf{PP: pp})
	}
	// Relaxed comparisons against the trained corpus.
	relaxed := relaxComparison(cl, g.snap.clauses, parseClauseKey)
	for _, rc := range relaxed {
		if rc.String() == cl.String() {
			continue // already covered by direct lookup
		}
		if pp, ok := g.snap.lookup(rc, g.deps); ok {
			out = append(out, &Leaf{PP: pp})
		}
	}
	// ≠ over a finite domain becomes a disjunction of = clauses.
	if rewritten, ok := wrangleNotEqual(cl, g.domains); ok {
		out = append(out, g.genRaw(rewritten)...)
	}
	return out
}

// genAnd applies R1 (each conjunct alone) and R2 (conjunctions over subsets
// of conjuncts), plus a PP trained directly for the composite predicate
// (e.g. PP_{p∧¬r} in Table 3, keyed by its canonical string) if there is one.
func (g *generator) genAnd(n *query.And) []Expr {
	var out []Expr
	composite, hasComposite := g.snap.get(CanonicalKey(n), g.deps)
	if hasComposite {
		out = append(out, &Leaf{PP: composite})
	}
	kidCands := make([][]Expr, len(n.Kids))
	for i, k := range n.Kids {
		kidCands[i] = g.genRaw(k)
	}
	// R1: any single conjunct's candidates are valid for the whole And.
	for _, cands := range kidCands {
		out = append(out, cands...)
	}
	// The paper's greedy check: decompose past a composite PP only when a
	// simpler clause performs better.
	if hasComposite && !g.someKidBeats(kidCands, composite) {
		return out
	}
	// R2: conjunctions over every subset (≥2) of conjuncts that have
	// candidates, using each kid's best candidate; the full set also gets a
	// few cross-combinations.
	var covered []int
	for i, c := range kidCands {
		if len(c) > 0 {
			covered = append(covered, i)
		}
	}
	if len(covered) >= 2 {
		for _, subset := range subsets(covered) {
			if len(subset) < 2 {
				continue
			}
			kids := make([]Expr, len(subset))
			for j, i := range subset {
				kids[j] = bestCandidate(kidCands[i])
			}
			out = append(out, &Conj{Kids: kids})
		}
		// Cross-combinations on the full covered set: swap in each kid's
		// second-best candidate one at a time.
		for _, i := range covered {
			if len(kidCands[i]) < 2 {
				continue
			}
			kids := make([]Expr, 0, len(covered))
			for _, j := range covered {
				if j == i {
					kids = append(kids, kidCands[j][1])
				} else {
					kids = append(kids, bestCandidate(kidCands[j]))
				}
			}
			out = append(out, &Conj{Kids: kids})
		}
	}
	return out
}

// genOr applies R3: a disjunction is covered only if every disjunct is
// (blobs matching any uncovered disjunct would otherwise be dropped).
func (g *generator) genOr(n *query.Or) []Expr {
	var out []Expr
	composite, hasComposite := g.snap.get(CanonicalKey(n), g.deps)
	if hasComposite {
		out = append(out, &Leaf{PP: composite})
	}
	kidCands := make([][]Expr, len(n.Kids))
	for i, k := range n.Kids {
		kidCands[i] = g.genRaw(k)
		if len(kidCands[i]) == 0 {
			return out // one uncovered disjunct sinks the decomposition
		}
	}
	if hasComposite && !g.someKidBeats(kidCands, composite) {
		return out
	}
	kids := make([]Expr, len(kidCands))
	for i, cands := range kidCands {
		kids[i] = bestCandidate(cands)
	}
	out = append(out, &Disj{Kids: kids})
	// Variants with each kid's second-best candidate.
	for i, cands := range kidCands {
		if len(cands) < 2 {
			continue
		}
		variant := make([]Expr, len(kids))
		copy(variant, kids)
		variant[i] = cands[1]
		out = append(out, &Disj{Kids: variant})
	}
	out = append(out, g.genComplementConj(n)...)
	return out
}

// genComplementConj rewrites a same-column disjunction of equality clauses
// over a finite domain into the equivalent conjunction of ≠ checks on the
// complement values: t=SUV ∨ t=van ⇔ t≠sedan ∧ t≠truck. The ≠ PPs resolve
// through negation reuse (§5.6), yielding the PP_{¬sedan} ∧ PP_{¬truck}
// style alternates of Table 10.
func (g *generator) genComplementConj(n *query.Or) []Expr {
	col := ""
	present := map[string]bool{}
	for _, k := range n.Kids {
		cl, ok := k.(*query.Clause)
		if !ok || cl.Op != query.OpEq {
			return nil
		}
		if col == "" {
			col = cl.Col
		} else if cl.Col != col {
			return nil
		}
		present[cl.Val.String()] = true
	}
	dom := g.domains[col]
	if len(dom) <= len(present) {
		return nil
	}
	var conj []Expr
	var partial []Expr // best-ratio single ≠ leaves, for prefixes
	for _, v := range dom {
		if present[v.String()] {
			continue
		}
		cl := &query.Clause{Col: col, Op: query.OpNe, Val: v}
		pp, ok := g.snap.lookup(cl, g.deps)
		if !ok {
			return nil // every complement value must be covered
		}
		leaf := &Leaf{PP: pp}
		conj = append(conj, leaf)
		partial = append(partial, leaf)
	}
	if len(conj) == 0 {
		return nil
	}
	out := []Expr{}
	if len(conj) == 1 {
		return []Expr{conj[0]}
	}
	out = append(out, &Conj{Kids: conj})
	// Prefix conjunctions are still implied (dropping a conjunct keeps the
	// necessary-condition property); offer the single best ≠ leaf too.
	sort.SliceStable(partial, func(a, b int) bool {
		return intrinsicRatio(partial[a]) < intrinsicRatio(partial[b])
	})
	out = append(out, partial[0])
	return out
}

// genTrue applies the no-predicate wrangling: even a query without a
// predicate can inject a complete-domain disjunction (A.2).
func (g *generator) genTrue() []Expr {
	var out []Expr
	for _, p := range noPredicateExpansion(g.domains) {
		out = append(out, g.genRaw(p)...)
	}
	return out
}

// someKidBeats reports whether any kid candidate has a better intrinsic
// c/r(1] ratio than the composite PP (the paper's greedy R2/R3 gate).
func (g *generator) someKidBeats(kidCands [][]Expr, composite *core.PP) bool {
	compositeRatio := ppRatio(composite)
	for _, cands := range kidCands {
		for _, c := range cands {
			if intrinsicRatio(c) < compositeRatio {
				return true
			}
		}
	}
	return false
}

func (g *generator) hasDependentPair(e Expr) bool {
	if len(g.skip) == 0 {
		return false
	}
	leaves := e.Leaves(nil)
	for i := 0; i < len(leaves); i++ {
		for j := i + 1; j < len(leaves); j++ {
			if g.skip[pairKey(leaves[i].Clause, leaves[j].Clause)] {
				return true
			}
		}
	}
	return false
}

// pairKey canonically orders two clause keys.
func pairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "||" + b
}

// ppRatio is the intrinsic cost-to-reduction ratio c/r(1] used by the
// greedy pruning (§6.1); PPs with no reduction at a=1 rank last.
func ppRatio(pp *core.PP) float64 {
	r := pp.Reduction(1)
	if r <= 0 {
		return 1e18
	}
	return pp.Cost() / r
}

// intrinsicRatio extends ppRatio to expressions by combining leaves with
// the a=1 composition formulas (Eq. 9/10 at full accuracy).
func intrinsicRatio(e Expr) float64 {
	c, r := intrinsicCR(e)
	if r <= 0 {
		return 1e18
	}
	return c / r
}

func intrinsicCR(e Expr) (cost, reduction float64) {
	switch n := e.(type) {
	case *Leaf:
		return n.PP.Cost(), n.PP.Reduction(1)
	case *Conj:
		cost, reduction = intrinsicCR(n.Kids[0])
		for _, k := range n.Kids[1:] {
			c2, r2 := intrinsicCR(k)
			cost = cost + (1-reduction)*c2
			reduction = reduction + r2 - reduction*r2
		}
		return cost, reduction
	case *Disj:
		cost, reduction = intrinsicCR(n.Kids[0])
		for _, k := range n.Kids[1:] {
			c2, r2 := intrinsicCR(k)
			cost = cost + reduction*c2
			reduction = reduction * r2
		}
		return cost, reduction
	}
	return 0, 0
}

// bestCandidate returns the candidate with the smallest intrinsic ratio.
func bestCandidate(cands []Expr) Expr {
	best := cands[0]
	bestR := intrinsicRatio(best)
	for _, c := range cands[1:] {
		if r := intrinsicRatio(c); r < bestR {
			best, bestR = c, r
		}
	}
	return best
}

// subsets enumerates all non-empty subsets of items (items is small: the
// paper's predicates have ≤ 4 clauses).
func subsets(items []int) [][]int {
	var out [][]int
	n := len(items)
	for mask := 1; mask < 1<<n; mask++ {
		var s []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				s = append(s, items[i])
			}
		}
		out = append(out, s)
	}
	return out
}

// parseClauseKey parses a canonical simple-clause key back into a clause;
// it returns false for composite keys.
func parseClauseKey(key string) (*query.Clause, bool) {
	p, err := query.Parse(key)
	if err != nil {
		return nil, false
	}
	cl, ok := p.(*query.Clause)
	return cl, ok
}
