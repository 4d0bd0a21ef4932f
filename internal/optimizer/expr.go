package optimizer

import (
	"strconv"
	"strings"

	"probpred/internal/blob"
	"probpred/internal/core"
	"probpred/internal/metrics"
)

// Expr is a logical expression over PPs: a leaf, a conjunction or a
// disjunction (§6.1, Table 3). An Expr is implied by the query predicate it
// was generated for (𝒫 ⇒ ℰ), so dropping blobs it rejects never adds false
// positives.
type Expr interface {
	// Leaves appends the expression's PPs to dst and returns it.
	Leaves(dst []*core.PP) []*core.PP
	// String renders the expression (e.g. "PP[t=SUV] | PP[t=van]").
	String() string
}

// Leaf wraps a single PP.
type Leaf struct{ PP *core.PP }

// Leaves implements Expr.
func (l *Leaf) Leaves(dst []*core.PP) []*core.PP { return append(dst, l.PP) }

// String implements Expr.
func (l *Leaf) String() string { return "PP[" + l.PP.Clause + "]" }

// Conj is a conjunction of sub-expressions (Figure 8: a blob must pass every
// branch; branches short-circuit on the first failure).
type Conj struct{ Kids []Expr }

// Leaves implements Expr.
func (c *Conj) Leaves(dst []*core.PP) []*core.PP {
	for _, k := range c.Kids {
		dst = k.Leaves(dst)
	}
	return dst
}

// String implements Expr.
func (c *Conj) String() string { return joinExpr(c.Kids, " & ") }

// Disj is a disjunction of sub-expressions (Figure 7: a blob is discarded
// only if it fails every branch; branches short-circuit on the first pass).
type Disj struct{ Kids []Expr }

// Leaves implements Expr.
func (d *Disj) Leaves(dst []*core.PP) []*core.PP {
	for _, k := range d.Kids {
		dst = k.Leaves(dst)
	}
	return dst
}

// String implements Expr.
func (d *Disj) String() string { return joinExpr(d.Kids, " | ") }

func joinExpr(kids []Expr, sep string) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		s := k.String()
		if _, isLeaf := k.(*Leaf); !isLeaf {
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return strings.Join(parts, sep)
}

// NumLeaves counts the PPs in an expression.
func NumLeaves(e Expr) int { return len(e.Leaves(nil)) }

// Compiled is an executable PP expression: every leaf has a concrete
// threshold (from its accuracy-budget share) and kids are ordered for
// short-circuit evaluation (cheapest effective first, §6.2). It implements
// engine.BlobFilter.
type Compiled struct {
	name string
	node compiledNode
}

type compiledNode interface {
	// test is the scalar reference walk: pass/fail and the virtual cost
	// actually incurred, which depends on short-circuiting. It is pure — no
	// score cache or instruments — and exists so tests can hold
	// testBatch to it.
	test(b blob.Blob) (bool, float64)
	// testBatch evaluates the node over the rows whose bits are set in act
	// (row i is bit i&63 of act[i>>6]), writing into out the verdict of
	// every active row and a zero for every other, and adding to r.cost[i]
	// exactly the virtual cost test(r.blobs[i]) would have charged. It may
	// read but must not mutate act, and out does not alias it. See batch.go.
	testBatch(r *batchRun, act, out []uint64)
}

type compiledLeaf struct {
	pp        *core.PP
	threshold float64
	cost      float64
	// col (optional, WithScoreCache) is this PP's score column, shared
	// across queries. Nil on standalone filters, which score every row.
	col *column
	// Opt-in per-clause instrumentation, resolved once by Compiled.Instrument
	// (see metrics.go). Nil on uninstrumented filters: testBatch guards on
	// scoreHist alone, so the hot path pays one nil check per leaf.
	scoreHist      *metrics.Histogram
	tested, passed *metrics.Counter
}

func (l *compiledLeaf) test(b blob.Blob) (bool, float64) {
	return l.pp.Score(b) >= l.threshold, l.cost
}

type compiledConj struct{ kids []compiledNode }

func (c *compiledConj) test(b blob.Blob) (bool, float64) {
	total := 0.0
	for _, k := range c.kids {
		ok, cost := k.test(b)
		total += cost
		if !ok {
			return false, total
		}
	}
	return true, total
}

type compiledDisj struct{ kids []compiledNode }

func (d *compiledDisj) test(b blob.Blob) (bool, float64) {
	total := 0.0
	for _, k := range d.kids {
		ok, cost := k.test(b)
		total += cost
		if ok {
			return true, total
		}
	}
	return false, total
}

// Name implements engine.BlobFilter.
func (c *Compiled) Name() string { return c.name }

// Test is the scalar reference for TestBatch: the verdict and short-circuit
// cost of one blob, scored fresh. It bypasses the score cache and feeds no
// instruments; execution goes through TestBatch.
func (c *Compiled) Test(b blob.Blob) (bool, float64) { return c.node.test(b) }

// WithThresholds returns a copy of the filter whose leaves, visited in walk
// order, test their PP against th(pp, threshold) instead of threshold. The
// receiver is not modified. It is how an audit re-runs a plan with
// thresholds fitted elsewhere, and how it reads the leaves (returning each
// threshold unchanged).
func (c *Compiled) WithThresholds(th func(pp *core.PP, threshold float64) float64) *Compiled {
	return &Compiled{name: c.name, node: mapLeaves(c.node, func(l *compiledLeaf) *compiledLeaf {
		cp := *l
		cp.threshold = th(l.pp, l.threshold)
		return &cp
	})}
}

// dropAllFilter rejects every blob at zero cost — the compiled form of an
// unsatisfiable predicate.
func dropAllFilter() *Compiled {
	return &Compiled{name: "false", node: dropAllNode{}}
}

type dropAllNode struct{}

func (dropAllNode) test(blob.Blob) (bool, float64) { return false, 0 }

// appendLeafAccuracies renders a costed plan's per-leaf accuracy allocations
// ("PP[t=SUV]@0.975, PP[c=red]@0.974", Table 10's "picked plan" column) onto
// an empty dst.
func appendLeafAccuracies(dst []byte, p *plan) []byte {
	if p.leaf == nil {
		for _, k := range p.kids {
			dst = appendLeafAccuracies(dst, k)
		}
		return dst
	}
	if len(dst) > 0 {
		dst = append(dst, ", "...)
	}
	dst = append(dst, "PP["...)
	dst = append(dst, p.leaf.Clause...)
	dst = append(dst, "]@"...)
	return strconv.AppendFloat(dst, p.accuracy, 'f', 3, 64)
}
