package bench

import (
	"fmt"
	"sort"

	"probpred/internal/core"
	"probpred/internal/engine"
	"probpred/internal/mathx"
	"probpred/internal/optimizer"
	"probpred/internal/query"
)

// Ablation experiments quantify the design choices DESIGN.md calls out: the
// accuracy-budget dynamic program and the execution-order search of §6.2,
// the PPs-per-expression bound k of §6.1, and the model selection of §5.5.
// The paper does not publish these as tables; they justify its design.

// AblationBudget compares the §6.2 budget-allocation search against a
// uniform split on the multi-clause TRAF-20 queries.
func AblationBudget(cfg Config) (*Report, error) {
	h, err := NewTrafficHarness(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "ablation-budget",
		Title: "Accuracy-budget allocation: §6.2 search vs uniform split (a=0.95)"}
	tb := &table{header: []string{"query", "searched r", "uniform r", "searched plan", "uniform plan"}}
	var sumS, sumU float64
	n := 0
	for _, q := range TRAF20 {
		pred := query.MustParse(q.Pred)
		if len(query.Clauses(pred)) < 2 {
			continue // single-clause queries have nothing to allocate
		}
		base, err := h.options(pred, 0.95)
		if err != nil {
			return nil, err
		}
		searched, err := h.Opt.Optimize(pred, base)
		if err != nil {
			return nil, err
		}
		uniform := base
		uniform.DisableBudgetSearch = true
		flat, err := h.Opt.Optimize(pred, uniform)
		if err != nil {
			return nil, err
		}
		if !searched.Inject || !flat.Inject {
			continue
		}
		tb.add(q.ID, f3(searched.Reduction), f3(flat.Reduction),
			f2(searched.PlanCost), f2(flat.PlanCost))
		sumS += searched.PlanCost
		sumU += flat.PlanCost
		n++
	}
	rep.Lines = tb.render()
	if n > 0 {
		rep.addf("average plan cost: searched %.2f vs uniform %.2f (%.1f%% saved by the DP)",
			sumS/float64(n), sumU/float64(n), 100*(1-sumS/sumU))
	}
	return rep, nil
}

// AblationOrdering compares the cheapest-effective-first execution-order
// search against written order, measured by actual executed cluster time.
func AblationOrdering(cfg Config) (*Report, error) {
	h, err := NewTrafficHarness(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "ablation-order",
		Title: "PP execution order: cheapest-effective-first vs written order (a=0.95)"}
	tb := &table{header: []string{"query", "ordered cluster", "fixed cluster", "saving"}}
	var sumO, sumF float64
	n := 0
	for _, q := range TRAF20 {
		pred := query.MustParse(q.Pred)
		if len(query.Clauses(pred)) < 2 {
			continue
		}
		run := func(disable bool) (*engine.Result, *optimizer.Decision, error) {
			opts, derr := h.options(pred, 0.95)
			if derr != nil {
				return nil, nil, derr
			}
			opts.DisableOrderSearch = disable
			plan, dec, derr := trafficBuilder{h: h}.plan(pred, opts)
			if derr != nil {
				return nil, nil, derr
			}
			res, derr := engine.Run(plan, engine.Config{})
			return res, dec, derr
		}
		ordered, decO, err := run(false)
		if err != nil {
			return nil, err
		}
		fixed, decF, err := run(true)
		if err != nil {
			return nil, err
		}
		if !decO.Inject || !decF.Inject {
			continue
		}
		saving := 1 - ordered.ClusterTime/fixed.ClusterTime
		tb.add(q.ID, f2(ordered.ClusterTime/1000)+"s", f2(fixed.ClusterTime/1000)+"s",
			fmt.Sprintf("%.1f%%", saving*100))
		sumO += ordered.ClusterTime
		sumF += fixed.ClusterTime
		n++
	}
	rep.Lines = tb.render()
	if n > 0 {
		rep.addf("total cluster time: ordered %.0f vs fixed %.0f (%.1f%% saved by ordering)",
			sumO, sumF, 100*(1-sumO/sumF))
	}
	return rep, nil
}

// AblationK sweeps the per-expression PP bound k over the ≥3-clause queries.
func AblationK(cfg Config) (*Report, error) {
	h, err := NewTrafficHarness(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "ablation-k",
		Title: "PPs-per-expression bound k: estimated reduction on ≥3-clause queries (a=0.95)"}
	tb := &table{header: []string{"query", "k=1", "k=2", "k=3", "k=4"}}
	for _, q := range TRAF20 {
		pred := query.MustParse(q.Pred)
		if len(query.Clauses(pred)) < 3 {
			continue
		}
		opts, err := h.options(pred, 0.95)
		if err != nil {
			return nil, err
		}
		cells := []string{q.ID}
		for k := 1; k <= 4; k++ {
			opts.MaxPPs = k
			dec, err := h.Opt.Optimize(pred, opts)
			if err != nil {
				return nil, err
			}
			if dec.Inject {
				cells = append(cells, f3(dec.Reduction))
			} else {
				cells = append(cells, "-")
			}
		}
		tb.add(cells...)
	}
	rep.Lines = tb.render()
	return rep, nil
}

// AblationModelSelection compares §5.5's automatic model selection against
// every fixed approach on two datasets with opposite winners.
func AblationModelSelection(cfg Config) (*Report, error) {
	rep := &Report{ID: "ablation-model",
		Title: "Model selection (§5.5) vs fixed approaches: avg reduction at a=0.95"}
	tb := &table{header: []string{"dataset", "auto", "picked", "PCA+KDE", "PCA+SVM", "Raw+SVM"}}
	nCats := cfg.scale(5, 3)
	dsets := []datasetSpec{specs(cfg)[1], specs(cfg)[2]} // sun, ucf101
	for _, spec := range dsets {
		d := spec.make(cfg)
		cats := pickCategories(d, nCats, 60)
		var autoR float64
		pickedCounts := map[string]int{}
		fixed := map[string]float64{}
		for _, k := range cats {
			set := d.SetFor(k)
			rng := mathx.NewRNG(cfg.Seed ^ uint64(k)*0xab)
			train, val, test := set.Split(rng, 0.6, 0.2)
			auto, err := core.Train("c", train, val, core.TrainConfig{Seed: cfg.Seed + uint64(k)})
			if err != nil {
				return nil, err
			}
			autoR += core.Evaluate(auto, test, 0.95).Reduction
			pickedCounts[auto.Approach]++
			for _, approach := range []string{"PCA+KDE", "PCA+SVM", "Raw+SVM"} {
				pp, err := core.Train("c", train, val, core.TrainConfig{
					Approach: approach, Seed: cfg.Seed + uint64(k)})
				if err != nil {
					return nil, err
				}
				fixed[approach] += core.Evaluate(pp, test, 0.95).Reduction
			}
		}
		n := float64(len(cats))
		// Sorted approach order: the column must not change between runs.
		approaches := make([]string, 0, len(pickedCounts))
		for a := range pickedCounts {
			approaches = append(approaches, a)
		}
		sort.Strings(approaches)
		picked := ""
		for _, a := range approaches {
			picked += fmt.Sprintf("%s×%d ", a, pickedCounts[a])
		}
		tb.add(d.Name, f3(autoR/n), picked,
			f3(fixed["PCA+KDE"]/n), f3(fixed["PCA+SVM"]/n), f3(fixed["Raw+SVM"]/n))
	}
	rep.Lines = tb.render()
	return rep, nil
}
