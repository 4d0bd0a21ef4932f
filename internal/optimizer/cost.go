package optimizer

import (
	"math"
	"math/bits"

	"probpred/internal/core"
)

// plan is a costed, accuracy-assigned instantiation of an Expr node (§6.2):
// every leaf carries the share of the query's accuracy budget allocated to
// it, internal nodes carry the combined cost c(a] and reduction r(a] from
// Eq. 9 (conjunction) / Eq. 10 (disjunction), and kid order encodes the
// chosen short-circuit evaluation order.
type plan struct {
	leaf      *core.PP
	conj      bool
	kids      []*plan
	accuracy  float64
	cost      float64
	reduction float64
}

// budgetGrid is the discretization of the accuracy-budget split explored at
// each conjunction/disjunction (the paper's dynamic program; the grid keeps
// it polynomial). Every point is a binary fraction and the grid is symmetric,
// so 1−budgetGrid[i] is exactly budgetGrid[len−1−i]: one table of a^t serves
// both branches of a split.
var budgetGrid = [...]float64{0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1}

// uniformSplit indexes the even split t = 1/2 in budgetGrid.
const uniformSplit = len(budgetGrid) / 2

// costOpts carries the ablation switches of §6.2's two search dimensions.
type costOpts struct {
	// uniformBudget disables the accuracy-allocation search: conjunctions
	// split the budget evenly (a_i = a^(1/2) at each fold).
	uniformBudget bool
	// fixedOrder disables the execution-order search: sub-expressions run
	// in written order instead of cheapest-effective-first.
	fixedOrder bool
	// profile, when set, accumulates the DP's memo counters over costExpr
	// calls (MemoHits, MemoEntries).
	profile *SearchStats
}

// costing is the §6.2 dynamic program for one candidate expression: the
// minimum-plan-cost instantiation at a query accuracy target, for a query
// whose remaining per-blob UDF cost is u. Plan cost per blob is c + (1−r)·u
// (§3, §6.2). Every candidate gets its own: nothing carries over from one
// candidate of a search to the next.
type costing struct {
	u    float64
	opts costOpts
	// nodes memoizes Expr nodes — in practice leaves — by accuracy rounded to
	// 1e-6. The stored plan keeps the exact accuracy of the FIRST visit to its
	// bucket (pow(pow(a,.5),.5) and pow(a,.25) differ in the last bit and
	// share one), so a leaf's allocation depends on the order of visits. That
	// is kept on purpose: keyed on exact bits the memo would be a pure
	// function, and on the benchmark's corpus no Decision of 1 596 changed
	// with such keys — but 678 of 17 994 candidate plan trees did, by an ulp
	// in a leaf's accuracy, and only the validation-set size keeps an ulp
	// from crossing a threshold rank on another corpus. Bit-identical plan
	// trees are what cost_ref_test.go can hold this DP to, so the rounding and
	// the visit order stay (DESIGN.md "Plan search").
	nodes map[nodeKey]*plan
	// subs memoizes sub-problems: a fold over the kids of one Conj/Disj node
	// that are still unplaced (a bitmask, so kid order is the written order)
	// at one exact budget. Solving a sub-problem a second time would find
	// every nodes entry it needs already present — the first solve put them
	// there or found them — and return an equal plan, so answering it from
	// the memo changes neither the result nor which visit of a leaf is first.
	subs map[subKey]*plan
	// hits counts lookups either memo answered, entries the distinct node
	// and sub-problem plans solved.
	hits, entries int
}

type nodeKey struct {
	node Expr
	acc  int64 // accuracy rounded to 1e-6
}

type subKey struct {
	node Expr   // the Conj or Disj whose kids are being folded
	mask uint64 // which of its kids remain, bit i = Kids[i]
	acc  uint64 // exact budget, math.Float64bits
}

// costExpr computes the minimum-plan-cost instantiation of e at query
// accuracy target a, for a query whose remaining per-blob UDF cost is u.
func costExpr(e Expr, a, u float64, opts costOpts) *plan {
	c := &costing{u: u, opts: opts, nodes: map[nodeKey]*plan{}, subs: map[subKey]*plan{}}
	p := c.expr(e, a)
	if opts.profile != nil {
		opts.profile.MemoHits += c.hits
		opts.profile.MemoEntries += c.entries
	}
	return p
}

// expr returns the best plan for node e at accuracy target a.
func (c *costing) expr(e Expr, a float64) *plan {
	key := nodeKey{node: e, acc: int64(math.Round(a * 1e6))}
	if p, ok := c.nodes[key]; ok {
		c.hits++
		return p
	}
	c.entries++
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
		out = c.fold(e, n.Kids, allKids(len(n.Kids)), a, true)
	case *Disj:
		out = c.fold(e, n.Kids, allKids(len(n.Kids)), a, false)
	}
	c.nodes[key] = out
	return out
}

// allKids is the sub-problem mask with all n kids unplaced. A node wider
// than the mask cannot come out of a search that terminates (a k-kid fold
// explores k!·9^(k−1) orderings and splits), so it is a caller's bug.
func allKids(n int) uint64 {
	if n > 64 {
		panic("optimizer: costing a node with more than 64 sub-expressions")
	}
	return 1<<uint(n) - 1 // n = 64 shifts to 0, and 0−1 is all ones
}

// fold solves one sub-problem: the n-ary conjunction or disjunction over the
// kids in mask, folded pairwise, exploring which kid joins the fold first (an
// ordering search: with the cost min() of Eq. 9/10 also considering both
// operand orders at each fold, this covers the orderings the paper's
// c/r-sorted + edit-distance heuristic explores) and how the accuracy budget
// splits between that kid and the rest. Each candidate fold is costed in
// registers; only the cheapest becomes a plan node.
func (c *costing) fold(node Expr, kids []Expr, mask uint64, a float64, conj bool) *plan {
	if mask&(mask-1) == 0 { // one kid left
		return c.expr(kids[bits.TrailingZeros64(mask)], a)
	}
	key := subKey{node: node, mask: mask, acc: math.Float64bits(a)}
	if p, ok := c.subs[key]; ok {
		c.hits++
		return p
	}
	c.entries++
	// The budget splits to explore.
	//
	// Conjunction (Eq. 9): a = a1·a2, so a1 = a^t, a2 = a^(1−t) — a positive
	// must pass both branches, and the budget trades off between them.
	// pow[i] = a^budgetGrid[i] is the first branch's share at split i and
	// pow[len−1−i] the rest's; the uniform-budget ablation pins t = 1/2.
	//
	// Disjunction: every branch receives the full target a, one split. This
	// is the sound allocation: a blob satisfying the disjunction is only
	// guaranteed to be caught by the branch whose clause it satisfies
	// (Figure 7), so that branch alone must retain an a-fraction of its
	// positives. (Eq. 10's a = a1+a2−a1·a2 models branches as independent
	// chances; taking a1=a2=a satisfies it with margin while preserving the
	// zero-false-negative guarantee at a=1.)
	var pow [len(budgetGrid)]float64
	lo, hi := 0, len(budgetGrid)
	switch {
	case !conj:
		hi = 1 // one sound allocation, no powers needed
	case c.opts.uniformBudget:
		lo, hi = uniformSplit, uniformSplit+1
		pow[uniformSplit] = math.Pow(a, budgetGrid[uniformSplit])
	default:
		for i, t := range budgetGrid {
			pow[i] = math.Pow(a, t)
		}
	}
	var (
		best1, best2           *plan // the winning fold's operands, first kid and rest
		bestSwap               bool  // the rest runs before the first kid
		bestC, bestR, bestCost float64
	)
	for m := mask; m != 0; m &= m - 1 {
		first := bits.TrailingZeros64(m)
		rest := mask &^ (1 << uint(first))
		for i := lo; i < hi; i++ {
			a1, a2 := a, a
			if conj {
				a1, a2 = pow[i], pow[len(pow)-1-i]
			}
			p1 := c.expr(kids[first], a1)
			p2 := c.fold(node, kids, rest, a2, conj)
			// Eq. 9 (conjunction) / Eq. 10 (disjunction), with the cheaper-
			// effective branch first unless the fixed-order ablation is on.
			var r, forward, reverse float64
			if conj {
				r = p1.reduction + p2.reduction - p1.reduction*p2.reduction
				forward = p1.cost + (1-p1.reduction)*p2.cost
				reverse = p2.cost + (1-p2.reduction)*p1.cost
			} else {
				r = p1.reduction * p2.reduction
				forward = p1.cost + p1.reduction*p2.cost
				reverse = p2.cost + p2.reduction*p1.cost
			}
			cost, swap := forward, false
			if reverse < forward && !c.opts.fixedOrder {
				cost, swap = reverse, true
			}
			if total := cost + (1-r)*c.u; best1 == nil || total < bestCost {
				best1, best2, bestSwap = p1, p2, swap
				bestC, bestR, bestCost = cost, r, total
			}
		}
		if c.opts.fixedOrder {
			break // written order only
		}
	}
	out := &plan{conj: conj, kids: []*plan{best1, best2}, cost: bestC, reduction: bestR}
	if bestSwap {
		out.kids[0], out.kids[1] = best2, best1
	}
	if conj {
		out.accuracy = best1.accuracy * best2.accuracy
	} else {
		out.accuracy = best1.accuracy + best2.accuracy - best1.accuracy*best2.accuracy
	}
	c.subs[key] = out
	return out
}

// planCost is the per-blob plan cost c + (1−r)·u (§3).
func planCost(p *plan, u float64) float64 {
	return p.cost + (1-p.reduction)*u
}

// compile lowers a costed plan into an executable short-circuit filter; leaf
// thresholds come from each leaf's allocated accuracy.
func compilePlan(p *plan, name string) *Compiled {
	return &Compiled{name: name, node: compileNode(p)}
}

func compileNode(p *plan) compiledNode {
	if p.leaf != nil {
		return &compiledLeaf{
			pp:        p.leaf,
			threshold: p.leaf.Threshold(p.accuracy),
			cost:      p.leaf.Cost(),
		}
	}
	kids := make([]compiledNode, len(p.kids))
	for i, k := range p.kids {
		kids[i] = compileNode(k)
	}
	if p.conj {
		return &compiledConj{kids: kids}
	}
	return &compiledDisj{kids: kids}
}
