package optimizer

import (
	"sort"

	"probpred/internal/query"
)

// The wrangler (A.2) greedily rewrites predicate clauses to improve
// matchability with the available PPs. Every rewrite yields a predicate that
// is implied by the original clause, so injected PPs remain necessary
// conditions.

// wrangleNotEqual rewrites a ≠ check over a finite discrete domain into the
// equivalent disjunction of = checks:
// t≠SUV ⇒ t=truck ∨ t=car ∨ ... (A.2 "Not-equals check").
func wrangleNotEqual(cl *query.Clause, domains map[string][]query.Value) (query.Pred, bool) {
	if cl.Op != query.OpNe {
		return nil, false
	}
	dom := domains[cl.Col]
	if len(dom) == 0 {
		return nil, false
	}
	var kids []query.Pred
	for _, v := range dom {
		if v.Equal(cl.Val) {
			continue
		}
		kids = append(kids, &query.Clause{Col: cl.Col, Op: query.OpEq, Val: v})
	}
	switch len(kids) {
	case 0:
		return nil, false
	case 1:
		return kids[0], true
	}
	return &query.Or{Kids: kids}, true
}

// relaxComparison returns the clause keys of available PPs that are implied
// by a numeric comparison clause by relaxing its bound (A.2 "Comparison"):
// s>60 ⇒ s>t for every t ≤ 60, so any available PP[s>t], t ≤ 60 applies.
// Results are ordered from tightest (most reductive) to loosest.
func relaxComparison(cl *query.Clause, available []string, parse func(string) (*query.Clause, bool)) []*query.Clause {
	if !cl.Val.IsNum {
		return nil
	}
	var lower bool // clause bounds from below (s > v / s >= v)
	switch cl.Op {
	case query.OpGt, query.OpGe:
		lower = true
	case query.OpLt, query.OpLe:
		lower = false
	default:
		return nil
	}
	var out []*query.Clause
	for _, key := range available {
		cand, ok := parse(key)
		if !ok || cand.Col != cl.Col || !cand.Val.IsNum {
			continue
		}
		// Strictness matters at equal bounds: s>=60 does not imply s>60,
		// whose PP was trained with s=60 as a negative.
		if impliesComparison(cl, cand) {
			out = append(out, cand)
		}
	}
	// Tightest first: for lower bounds larger t is tighter; for upper
	// bounds smaller t is tighter.
	sort.Slice(out, func(a, b int) bool {
		if lower {
			return out[a].Val.Num > out[b].Val.Num
		}
		return out[a].Val.Num < out[b].Val.Num
	})
	return out
}

// impliesComparison reports whether numeric clause a implies numeric clause
// b for same-column comparisons (exact edge-case handling for strictness).
func impliesComparison(a, b *query.Clause) bool {
	av, bv := a.Val.Num, b.Val.Num
	switch a.Op {
	case query.OpGt:
		return (b.Op == query.OpGt && bv <= av) || (b.Op == query.OpGe && bv <= av)
	case query.OpGe:
		return (b.Op == query.OpGt && bv < av) || (b.Op == query.OpGe && bv <= av)
	case query.OpLt:
		return (b.Op == query.OpLt && bv >= av) || (b.Op == query.OpLe && bv >= av)
	case query.OpLe:
		return (b.Op == query.OpLe && bv >= av) || (b.Op == query.OpLt && bv > av)
	case query.OpEq:
		switch b.Op {
		case query.OpEq:
			return bv == av
		case query.OpGe:
			return av >= bv
		case query.OpGt:
			return av > bv
		case query.OpLe:
			return av <= bv
		case query.OpLt:
			return av < bv
		}
	}
	return false
}

// noPredicateExpansion rewrites the trivial predicate over a finite-domain
// column into the equivalent complete disjunction (A.2 "No-predicate"):
// 1 ⇔ t=car ∨ t=truck ∨ t=SUV. Even predicate-free queries can then be
// seeded with PPs. It returns one expansion per column.
func noPredicateExpansion(domains map[string][]query.Value) []query.Pred {
	cols := make([]string, 0, len(domains))
	for c := range domains {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	var out []query.Pred
	for _, col := range cols {
		dom := domains[col]
		if len(dom) < 2 {
			continue
		}
		var kids []query.Pred
		allStrings := true
		for _, v := range dom {
			if v.IsNum {
				allStrings = false
				break
			}
			kids = append(kids, &query.Clause{Col: col, Op: query.OpEq, Val: v})
		}
		// Only categorical columns enumerate cleanly; numeric domains are
		// discretizations, not exhaustive value lists.
		if !allStrings {
			continue
		}
		out = append(out, &query.Or{Kids: kids})
	}
	return out
}
