package optimizer

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"

	"probpred/internal/obs"
)

// Mid-query re-optimization (ROADMAP item 3; Hydro's adaptive re-entry,
// PAPERS.md): a running filter carries per-leaf runtime probes, and when the
// observed selectivities diverge from the plan's estimates the optimizer
// re-enters with the observed statistics and re-orders the short-circuit
// evaluation.
//
// The re-entry is deliberately restricted to REORDERING siblings of the
// already-compiled expression: leaves, thresholds and tree structure are
// shared untouched, so the new filter accepts exactly the blobs the old one
// accepts (conjunction and disjunction are commutative in outcome; only the
// short-circuit cost depends on kid order). That is what lets the adapt
// controller hot-swap mid-query while keeping outputs byte-identical —
// re-running the full plan search could pick different leaves or thresholds
// and silently change the answer halfway through a scan.

// leafProbe accumulates one running leaf's observed row counts. Attached via
// WithRuntimeObserver (a clone, like WithScoreCache — compiled filters are
// shared across sessions and must not be mutated). Atomics: parallel workers
// of one run tally concurrently.
type leafProbe struct {
	clause  string
	cost    float64
	planned float64 // estimated reduction at the leaf's allocated accuracy
	tested  atomic.Uint64
	passed  atomic.Uint64
}

// RuntimeObserver reads the probes of one observed filter, in leaf walk
// order. Safe for concurrent use with the filter's execution.
type RuntimeObserver struct {
	probes []*leafProbe
}

// LeafStat is one leaf's planned-vs-observed snapshot.
type LeafStat struct {
	// Clause is the leaf PP's clause key.
	Clause string
	// Cost is the leaf's per-blob virtual cost.
	Cost float64
	// PlannedReduction is the reduction the plan estimated for this leaf at
	// its allocated accuracy.
	PlannedReduction float64
	// Tested and Passed count the rows that reached the leaf and the rows it
	// kept. Short-circuiting means downstream leaves see fewer rows.
	Tested, Passed uint64
}

// ObservedReduction is the fraction of tested rows the leaf dropped
// (NaN-free: a leaf no row reached reports its planned reduction, carrying
// zero divergence signal).
func (s LeafStat) ObservedReduction() float64 {
	if s.Tested == 0 {
		return s.PlannedReduction
	}
	return 1 - float64(s.Passed)/float64(s.Tested)
}

// Stats snapshots every leaf's counters.
func (ro *RuntimeObserver) Stats() []LeafStat {
	out := make([]LeafStat, len(ro.probes))
	for i, p := range ro.probes {
		out[i] = LeafStat{
			Clause:           p.clause,
			Cost:             p.cost,
			PlannedReduction: p.planned,
			Tested:           p.tested.Load(),
			Passed:           p.passed.Load(),
		}
	}
	return out
}

// MaxDivergence returns the largest |observed − planned| reduction across
// leaves that have seen at least minRows rows — the adapt controller's
// trigger signal. Leaves with thinner evidence contribute nothing: a leaf
// short-circuited away carries no drift information.
func (ro *RuntimeObserver) MaxDivergence(minRows uint64) float64 {
	if minRows == 0 {
		minRows = 1
	}
	worst := 0.0
	for _, st := range ro.Stats() {
		if st.Tested < minRows {
			continue
		}
		if d := math.Abs(st.ObservedReduction() - st.PlannedReduction); d > worst {
			worst = d
		}
	}
	return worst
}

// WithRuntimeObserver returns a copy of the filter whose leaves feed fresh
// runtime probes, plus the observer reading them. The receiver is not
// modified (the WithScoreCache contract); pass/fail results and virtual
// costs are identical to the unobserved filter. Composes with WithScoreCache
// in either order.
func (c *Compiled) WithRuntimeObserver() (*Compiled, *RuntimeObserver) {
	ro := &RuntimeObserver{}
	if c == nil {
		return c, ro
	}
	return &Compiled{name: c.name, node: mapLeaves(c.node, func(l *compiledLeaf) *compiledLeaf {
		cp := *l
		cp.probe = &leafProbe{clause: l.pp.Clause, cost: l.cost, planned: l.planned}
		ro.probes = append(ro.probes, cp.probe)
		return &cp
	})}, ro
}

// Reoptimized is the result of one mid-query re-entry.
type Reoptimized struct {
	// Filter is the re-ordered filter. It shares leaf nodes (and their score
	// caches and probes) with the input, so observation continues seamlessly
	// across a swap. Equal to the input filter when Changed is false.
	Filter *Compiled
	// Changed reports whether any sibling order changed.
	Changed bool
	// OldCost and NewCost are the expected per-blob PP execution costs of the
	// input and output orders under the observed statistics.
	OldCost, NewCost float64
	// Reduction is the whole filter's reduction recombined from observed
	// leaf statistics (order-independent).
	Reduction float64
	// Expr renders the new evaluation order.
	Expr string
}

// Reoptimize re-enters the optimizer with a running filter's observed
// statistics: each leaf's reduction estimate is replaced by its observed
// drop rate (when at least minRows rows reached it; thinner leaves keep the
// planned estimate), and every conjunction/disjunction re-orders its kids by
// the rank rule — ascending cost/reduction for conjunctions, ascending
// cost/(1−reduction) for disjunctions — which the adjacent-exchange argument
// makes optimal for short-circuit cost under the independence assumption the
// cost model already carries (§6.2). Thresholds and leaves are untouched, so
// the returned filter is outcome-equivalent to the input on every blob.
func (o *Optimizer) Reoptimize(c *Compiled, minRows uint64, tr *obs.Tracer) (*Reoptimized, error) {
	return o.ReoptimizeCtx(c, minRows, tr, obs.TraceContext{})
}

// ReoptimizeCtx is Reoptimize with the triggering session's trace context:
// the optimizer.reoptimize event carries the session's TraceID, linking
// mid-query replans to the session they rescued.
func (o *Optimizer) ReoptimizeCtx(c *Compiled, minRows uint64, tr *obs.Tracer, ctx obs.TraceContext) (*Reoptimized, error) {
	if c == nil {
		return nil, fmt.Errorf("optimizer: reoptimize of nil filter")
	}
	if minRows == 0 {
		minRows = 1
	}
	oldNode, oldStats := c.node, nodeStats(c.node, minRows, false)
	newNode, newStats := reorderNode(c.node, minRows)
	out := &Reoptimized{
		Filter:    c,
		OldCost:   oldStats.cost,
		NewCost:   newStats.cost,
		Reduction: newStats.reduction,
		Expr:      renderNode(newNode),
	}
	if !sameOrder(oldNode, newNode) {
		out.Changed = true
		out.Filter = &Compiled{name: out.Expr, node: newNode}
	}
	if reg := o.metrics; reg != nil {
		reg.Counter("optimizer_reoptimizations_total", "Mid-query re-entries with observed statistics.").Inc()
		if out.Changed {
			reg.Counter("optimizer_reorders_total", "Re-entries that changed the short-circuit evaluation order.").Inc()
		}
	}
	if tr == nil {
		tr = o.tr
	}
	if tr.Enabled() {
		tr.EventCtx(ctx, "optimizer.reoptimize",
			obs.Attr{Key: "old_expr", Value: c.name},
			obs.Attr{Key: "new_expr", Value: out.Expr},
			obs.Attr{Key: "changed", Value: strconv.FormatBool(out.Changed)},
			obs.Attr{Key: "old_cost", Value: strconv.FormatFloat(out.OldCost, 'f', 4, 64)},
			obs.Attr{Key: "new_cost", Value: strconv.FormatFloat(out.NewCost, 'f', 4, 64)})
	}
	return out, nil
}

// runtimeStats is a node's (cost, reduction) under observed statistics.
type runtimeStats struct{ cost, reduction float64 }

// leafRuntime resolves one leaf's statistics, preferring observation.
func leafRuntime(l *compiledLeaf, minRows uint64) runtimeStats {
	r := l.planned
	if p := l.probe; p != nil {
		if tested := p.tested.Load(); tested >= minRows {
			// Pass rates observed under short-circuiting are conditional on
			// the rows that reached the leaf; independence (already assumed
			// by Eq. 9/10's composition) reads them as marginals.
			r = 1 - float64(p.passed.Load())/float64(tested)
		}
	}
	return runtimeStats{cost: l.cost, reduction: r}
}

// nodeStats recombines a node's cost/reduction bottom-up in its CURRENT kid
// order (Eq. 9/10). reorder selects whether kids are rank-sorted first.
func nodeStats(n compiledNode, minRows uint64, _ bool) runtimeStats {
	switch v := n.(type) {
	case *compiledLeaf:
		return leafRuntime(v, minRows)
	case *compiledConj:
		return combineRuntime(kidStats(v.kids, minRows), true)
	case *compiledDisj:
		return combineRuntime(kidStats(v.kids, minRows), false)
	}
	return runtimeStats{cost: 0, reduction: 1} // dropAllNode: free, drops all
}

func kidStats(kids []compiledNode, minRows uint64) []runtimeStats {
	out := make([]runtimeStats, len(kids))
	for i, k := range kids {
		out[i] = nodeStats(k, minRows, false)
	}
	return out
}

// combineRuntime folds already-ordered kid statistics left to right.
// Conjunction: r = r1 + r2 − r1·r2, c = c1 + (1−r1)·c2 (Eq. 9).
// Disjunction: r = r1·r2, c = c1 + r1·c2 (Eq. 10).
func combineRuntime(kids []runtimeStats, conj bool) runtimeStats {
	if len(kids) == 0 {
		return runtimeStats{}
	}
	acc := kids[0]
	for _, k := range kids[1:] {
		if conj {
			acc = runtimeStats{
				cost:      acc.cost + (1-acc.reduction)*k.cost,
				reduction: acc.reduction + k.reduction - acc.reduction*k.reduction,
			}
		} else {
			acc = runtimeStats{
				cost:      acc.cost + acc.reduction*k.cost,
				reduction: acc.reduction * k.reduction,
			}
		}
	}
	return acc
}

// reorderNode rebuilds a node with rank-ordered kids (recursively) and
// returns it with its recombined statistics. Leaves are returned as-is —
// sharing, not copying, so caches and probes survive the swap.
func reorderNode(n compiledNode, minRows uint64) (compiledNode, runtimeStats) {
	switch v := n.(type) {
	case *compiledLeaf:
		return v, leafRuntime(v, minRows)
	case *compiledConj:
		kids, stats := reorderKids(v.kids, minRows, true)
		return &compiledConj{kids: kids}, combineRuntime(stats, true)
	case *compiledDisj:
		kids, stats := reorderKids(v.kids, minRows, false)
		return &compiledDisj{kids: kids}, combineRuntime(stats, false)
	}
	return n, runtimeStats{cost: 0, reduction: 1}
}

// reorderKids rank-sorts sibling sub-plans: a conjunction runs kids in
// ascending cost/reduction (cheap, highly-dropping filters first), a
// disjunction in ascending cost/(1−reduction) (cheap, highly-passing
// branches first). Both follow from the adjacent-exchange inequality on
// Eq. 9/10's fold. The sort is stable with a deterministic epsilon so noise
// below 1e-12 never reorders — swap decisions must be reproducible.
func reorderKids(kids []compiledNode, minRows uint64, conj bool) ([]compiledNode, []runtimeStats) {
	type ranked struct {
		node  compiledNode
		stats runtimeStats
		rank  float64
	}
	rs := make([]ranked, len(kids))
	for i, k := range kids {
		node, stats := reorderNode(k, minRows)
		denom := stats.reduction
		if !conj {
			denom = 1 - stats.reduction
		}
		rank := math.Inf(1) // a filter that never short-circuits goes last
		if denom > 0 {
			rank = stats.cost / denom
		}
		rs[i] = ranked{node: node, stats: stats, rank: rank}
	}
	// Insertion sort, stable: equal-rank kids keep their current order.
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].rank < rs[j-1].rank-1e-12; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
	outKids := make([]compiledNode, len(rs))
	outStats := make([]runtimeStats, len(rs))
	for i, r := range rs {
		outKids[i], outStats[i] = r.node, r.stats
	}
	return outKids, outStats
}

// sameOrder reports whether two compiled trees evaluate in the same order.
// Leaves are compared by identity — reorderNode shares them.
func sameOrder(a, b compiledNode) bool {
	switch va := a.(type) {
	case *compiledLeaf:
		vb, ok := b.(*compiledLeaf)
		return ok && va == vb
	case *compiledConj:
		vb, ok := b.(*compiledConj)
		return ok && sameKids(va.kids, vb.kids)
	case *compiledDisj:
		vb, ok := b.(*compiledDisj)
		return ok && sameKids(va.kids, vb.kids)
	}
	return a == b
}

func sameKids(a, b []compiledNode) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameOrder(a[i], b[i]) {
			return false
		}
	}
	return true
}

// EvalExpr renders the filter in short-circuit evaluation order. This can
// differ from Name() — the plan search reverses sibling order when the
// reversed fold is cheaper, while Name() keeps the source expression's
// notation — and it is the order runtime observation and re-optimization
// reason about.
func (c *Compiled) EvalExpr() string { return renderNode(c.node) }

// ExecutionOrder returns the leaf clause keys in evaluation order (the order
// WithRuntimeObserver probes report in).
func (c *Compiled) ExecutionOrder() []string {
	var out []string
	var walk func(n compiledNode)
	walk = func(n compiledNode) {
		switch v := n.(type) {
		case *compiledLeaf:
			out = append(out, v.pp.Clause)
		case *compiledConj:
			for _, k := range v.kids {
				walk(k)
			}
		case *compiledDisj:
			for _, k := range v.kids {
				walk(k)
			}
		}
	}
	walk(c.node)
	return out
}

// renderNode renders a compiled tree in evaluation order (the Expr/joinExpr
// notation, so swapped plans read like planned ones in EXPLAIN output).
func renderNode(n compiledNode) string {
	switch v := n.(type) {
	case *compiledLeaf:
		return "PP[" + v.pp.Clause + "]"
	case *compiledConj:
		return joinCompiled(v.kids, " & ")
	case *compiledDisj:
		return joinCompiled(v.kids, " | ")
	}
	return "false (unsatisfiable predicate)"
}

func joinCompiled(kids []compiledNode, sep string) string {
	parts := make([]string, len(kids))
	for i, k := range kids {
		s := renderNode(k)
		if _, isLeaf := k.(*compiledLeaf); !isLeaf {
			s = "(" + s + ")"
		}
		parts[i] = s
	}
	return strings.Join(parts, sep)
}
