package optimizer

import (
	"fmt"

	"probpred/internal/engine"
	"probpred/internal/query"
)

// This file implements the PP seeding and pushdown rules of Appendix A.4 as
// a plan-level transformation: a PP placeholder X_p is seeded at the plan's
// selection and pushed down, operator by operator, until it would execute
// directly on the raw input (right after the scan). Only then can trained
// PPs replace it. If the placeholder gets stuck — the predicate references a
// column fabricated by an opaque projection, or a column supplied by a
// join's dimension table — it is simply omitted and the plan runs as-is.
//
// Rules (Table 11):
//
//	seed:        σ_p(R)            ⇝ σ_p(X_p(R))
//	select:      X_p(σ_q(R))       ⇝ σ_q(X_p(R))      [q independent of p]
//	fk-join:     X_p(R ⋈_D S)      ⇝ X_p(R) ⋈_D S     [p's columns ⊆ R]
//	rename π:    X_p(π_{Ca→Cb}(R)) ⇝ π(X_{p,Ca→Cb}(R))
//	compute π:   X_p(π_{f(D)=d}(R))⇝ π(X_{p,d→f(D)}(R))
//
// The compute rule needs the clause rewritten onto the projection's input
// expression; since computed columns are opaque Go functions here, pushdown
// succeeds only when the predicate does not reference them (their PPs would
// have been trained under the output name anyway if the pipeline is stable —
// that case is handled upstream by training PPs for the output clause).

// PushdownResult reports what the pushdown pass did.
type PushdownResult struct {
	// Plan is the transformed plan (the input plan when Injected is false).
	Plan engine.Plan
	// Decision is the optimizer decision for the pushed-down predicate
	// (nil when no selection was found).
	Decision *Decision
	// Injected reports whether a PP filter was inserted.
	Injected bool
	// Reason explains why nothing was injected.
	Reason string
	// RewrittenPred is the predicate after unwinding renames, i.e. the form
	// matched against the PP corpus.
	RewrittenPred query.Pred
}

// InjectIntoPlan seeds a PP for the plan's selection predicate and pushes it
// to the scan. opts.UDFCost, when zero, is computed from the per-row costs
// of the operators the PP would shortcut (everything between the scan and
// the selection).
func (o *Optimizer) InjectIntoPlan(plan engine.Plan, opts Options) (*PushdownResult, error) {
	res := &PushdownResult{Plan: plan}
	selIdx := -1
	var pred query.Pred
	for i, op := range plan.Ops {
		if s, ok := op.(*engine.Select); ok {
			selIdx = i
			pred = s.Pred
			break // seed at the first (outermost-from-input) selection
		}
	}
	if selIdx == -1 {
		res.Reason = "plan has no selection to seed a PP from"
		return res, nil
	}
	if len(plan.Ops) == 0 {
		return nil, fmt.Errorf("optimizer: empty plan")
	}
	if _, ok := plan.Ops[0].(*engine.Scan); !ok {
		res.Reason = "plan does not start with a scan"
		return res, nil
	}
	// A plan holds at most one PP filter (engine.Run refuses a second).
	for _, op := range plan.Ops {
		if _, ok := op.(*engine.PPFilter); ok {
			res.Reason = "plan already carries a PP filter"
			return res, nil
		}
	}

	// Push the placeholder from just below the selection toward the scan.
	shortcutCost := 0.0
	current := pred
	for i := selIdx - 1; i >= 1; i-- {
		next, cost, reason := pushBelow(plan.Ops[i], current)
		if reason != "" {
			res.Reason = fmt.Sprintf("pushdown stuck at %s: %s", plan.Ops[i].Name(), reason)
			return res, nil
		}
		current = next
		shortcutCost += cost
	}
	res.RewrittenPred = current

	if opts.UDFCost == 0 {
		opts.UDFCost = shortcutCost
	}
	dec, err := o.Optimize(current, opts)
	if err != nil {
		return nil, err
	}
	res.Decision = dec
	if !dec.Inject {
		res.Reason = "optimizer found no beneficial PP combination"
		return res, nil
	}
	ops := make([]engine.Operator, 0, len(plan.Ops)+1)
	ops = append(ops, plan.Ops[0], &engine.PPFilter{F: dec.Filter})
	ops = append(ops, plan.Ops[1:]...)
	res.Plan = engine.Plan{Ops: ops}
	res.Injected = true
	return res, nil
}

// pushBelow applies one pushdown rule: it returns the predicate as seen
// below op, the per-row cost the PP shortcut saves by sitting below op, and
// a non-empty reason when the placeholder cannot pass.
func pushBelow(op engine.Operator, pred query.Pred) (query.Pred, float64, string) {
	switch n := op.(type) {
	case *engine.Process:
		// UDFs materialize columns from the blob; the PP reads the raw blob
		// itself, so it always passes below, saving the UDF's work.
		return pred, n.P.Cost(), ""
	case *engine.Select:
		// X_p(σ_q(R)) ⇝ σ_q(X_p(R)): sound regardless of independence —
		// blobs dropped by X_p fail p no matter what q does; independence
		// only affects the reduction estimate (handled at runtime by the
		// A.5 feedback loop).
		return pred, 0, ""
	case *engine.Project:
		return pushBelowProject(n, pred)
	case *engine.FKJoin:
		// X_p(R ⋈_D S) ⇝ X_p(R) ⋈_D S requires p's columns to come from
		// the fact side R: columns supplied by the dimension table do not
		// exist below the join.
		dimCols := map[string]bool{}
		for _, r := range n.Table {
			for _, c := range r.Columns() {
				if c.Name != n.RightKey {
					dimCols[c.Name] = true
				}
			}
		}
		for _, col := range query.Columns(pred) {
			if dimCols[col] {
				return nil, 0, fmt.Sprintf("predicate references dimension column %q", col)
			}
		}
		return pred, 0, ""
	case *engine.Barrier:
		return pred, 0, ""
	case *engine.GroupReduce, *engine.Combine:
		return nil, 0, "cannot push below a grouping operator"
	}
	return nil, 0, fmt.Sprintf("unknown operator %T", op)
}

// pushBelowProject applies the two projection rules: renamed columns are
// rewritten back to their input names; predicates over computed columns
// cannot pass (the computation is an opaque function).
func pushBelowProject(p *engine.Project, pred query.Pred) (query.Pred, float64, string) {
	computed := map[string]bool{}
	for _, c := range p.Compute {
		computed[c.Name] = true
	}
	for _, col := range query.Columns(pred) {
		if computed[col] {
			return nil, 0, fmt.Sprintf("predicate references computed column %q", col)
		}
	}
	dropped := map[string]bool{}
	for _, d := range p.Drop {
		dropped[d] = true
	}
	rewritten := RewriteForRenames(pred, p.Rename)
	// A dropped column cannot appear above the projection at all, but a
	// rename that shadows a dropped name could confuse matters; verify the
	// rewritten predicate does not reference dropped columns.
	for _, col := range query.Columns(rewritten) {
		if dropped[col] {
			return nil, 0, fmt.Sprintf("predicate references dropped column %q", col)
		}
	}
	return rewritten, 0, ""
}
