package bench

import (
	"fmt"
	"sort"
	"time"

	"probpred/internal/data"
	"probpred/internal/engine"
	"probpred/internal/mathx"
	"probpred/internal/optimizer"
	"probpred/internal/query"
)

// Fig10 regenerates Figure 10: per-query speed-up in cluster processing
// time relative to NoP, for PP at a=0.95/0.98/1.0 and SortP, queries ranked
// by PP(0.95) speed-up. It also verifies accuracy: the fraction of NoP
// output rows each PP run retains.
func Fig10(cfg Config) (*Report, error) {
	h, err := NewTrafficHarness(cfg)
	if err != nil {
		return nil, err
	}
	return fig10With(h)
}

func fig10With(h *TrafficHarness) (*Report, error) {
	rep := &Report{ID: "fig10", Title: "TRAF-20 speed-up in cluster processing time vs NoP (ranked by PP a=0.95)"}
	type row struct {
		id                        string
		pp95, pp98, pp100, sortp  float64
		acc95, acc98, acc100, sel float64
	}
	var rows []row
	accuracies := []float64{0.95, 0.98, 1.0}
	for _, q := range TRAF20 {
		pred := query.MustParse(q.Pred)
		nopPlan, _, err := h.NoPPlan(pred)
		if err != nil {
			return nil, err
		}
		nop, err := engine.Run(nopPlan, engine.Config{})
		if err != nil {
			return nil, err
		}
		r := row{id: q.ID, sel: float64(len(nop.Rows)) / float64(len(h.TestBlobs))}

		var speeds [3]float64
		var accs [3]float64
		for i, a := range accuracies {
			plan, _, err := h.PPPlan(pred, a)
			if err != nil {
				return nil, err
			}
			res, err := engine.Run(plan, engine.Config{})
			if err != nil {
				return nil, err
			}
			speeds[i] = nop.ClusterTime / res.ClusterTime
			accs[i] = retained(nop, res)
		}
		r.pp95, r.pp98, r.pp100 = speeds[0], speeds[1], speeds[2]
		r.acc95, r.acc98, r.acc100 = accs[0], accs[1], accs[2]

		sp, err := h.SortPPlan(pred)
		if err != nil {
			return nil, err
		}
		spRes, err := engine.Run(sp, engine.Config{})
		if err != nil {
			return nil, err
		}
		if len(spRes.Rows) != len(nop.Rows) {
			return nil, fmt.Errorf("bench: SortP changed %s output: %d vs %d",
				q.ID, len(spRes.Rows), len(nop.Rows))
		}
		r.sortp = nop.ClusterTime / spRes.ClusterTime
		rows = append(rows, r)
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].pp95 < rows[b].pp95 })
	tb := &table{header: []string{"query", "sel", "PP a=0.95", "PP a=0.98", "PP a=1.0", "SortP",
		"acc@0.95", "acc@0.98", "acc@1.0"}}
	var sum95, sum100, sumSortP float64
	for _, r := range rows {
		tb.add(r.id, f3(r.sel), f2(r.pp95)+"x", f2(r.pp98)+"x", f2(r.pp100)+"x", f2(r.sortp)+"x",
			f3(r.acc95), f3(r.acc98), f3(r.acc100))
		sum95 += r.pp95
		sum100 += r.pp100
		sumSortP += r.sortp
	}
	rep.Lines = tb.render()
	for _, r := range rows {
		rep.metric(r.id+".speedup_pp95", r.pp95)
		rep.metric(r.id+".speedup_pp100", r.pp100)
		rep.metric(r.id+".speedup_sortp", r.sortp)
		rep.metric(r.id+".accuracy_pp95", r.acc95)
		rep.metric(r.id+".selectivity", r.sel)
	}
	n := float64(len(rows))
	rep.metric("avg_speedup_pp95", sum95/n)
	rep.metric("avg_speedup_pp100", sum100/n)
	rep.metric("avg_speedup_sortp", sumSortP/n)
	rep.addf("average speed-up: PP(0.95)=%.2fx  PP(1.0)=%.2fx  SortP=%.2fx", sum95/n, sum100/n, sumSortP/n)
	return rep, nil
}

// retained measures what fraction of the reference run's output rows the
// candidate run kept (the empirical query-level accuracy; PPs add no false
// positives because the original predicate still runs).
func retained(ref, cand *engine.Result) float64 {
	if len(ref.Rows) == 0 {
		return 1
	}
	kept := map[int]bool{}
	for _, r := range cand.Rows {
		kept[r.Blob.ID] = true
	}
	n := 0
	for _, r := range ref.Rows {
		if kept[r.Blob.ID] {
			n++
		}
	}
	return float64(n) / float64(len(ref.Rows))
}

// Table8 regenerates Table 8: normalized average query latency (including
// PP training and inference overhead) at one third, two thirds and the full
// input size, for NoP and PP(a=0.95).
func Table8(cfg Config) (*Report, error) {
	h, err := NewTrafficHarness(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "table8", Title: "Normalized average query latency vs input size (PP includes training+inference overhead)"}
	fractions := []float64{1.0 / 3, 2.0 / 3, 1.0}
	names := []string{"33%", "67%", "100%"}
	nopLat := make([]float64, len(fractions))
	ppLat := make([]float64, len(fractions))
	full := h.TestBlobs
	// Training overhead amortized per query: the corpus serves all twenty
	// queries, expressed in virtual time via the per-row training charge.
	trainOverhead := trainOverheadVMS(len(h.TrainBlobs)) / float64(len(TRAF20))
	for fi, frac := range fractions {
		h.TestBlobs = full[:int(frac*float64(len(full)))]
		for _, q := range TRAF20 {
			pred := query.MustParse(q.Pred)
			nopPlan, _, err := h.NoPPlan(pred)
			if err != nil {
				return nil, err
			}
			nop, err := engine.Run(nopPlan, engine.Config{})
			if err != nil {
				return nil, err
			}
			nopLat[fi] += nop.Latency
			plan, _, err := h.PPPlan(pred, 0.95)
			if err != nil {
				return nil, err
			}
			pp, err := engine.Run(plan, engine.Config{})
			if err != nil {
				return nil, err
			}
			ppLat[fi] += pp.Latency + trainOverhead
		}
	}
	h.TestBlobs = full
	norm := nopLat[len(nopLat)-1]
	tb := &table{header: append([]string{"system"}, names...)}
	nopRow := []string{"NoP"}
	ppRow := []string{"PP (a=0.95)"}
	for i := range fractions {
		nopRow = append(nopRow, f2(nopLat[i]/norm))
		ppRow = append(ppRow, f2(ppLat[i]/norm))
		rep.metric("latency_norm_nop_"+names[i], nopLat[i]/norm)
		rep.metric("latency_norm_pp95_"+names[i], ppLat[i]/norm)
	}
	tb.add(nopRow...)
	tb.add(ppRow...)
	rep.Lines = tb.render()
	return rep, nil
}

// trainOverheadVMS converts corpus training work to virtual milliseconds:
// SVM training is a few passes over the rows (~0.2 vms per row per PP over
// 32 PPs, matching the "minutes" scale of Table 9).
func trainOverheadVMS(trainRows int) float64 {
	return float64(trainRows) * 0.2 * 32
}

// Table9 regenerates Table 9: per-query number of PPs chosen, PP inference
// cost per row, subsequent UDF cost per row, selectivity and cluster-time
// reduction at a=0.95, and in Wall the PP construction (training) time.
func Table9(cfg Config) (*Report, error) {
	h, err := NewTrafficHarness(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "table9", Title: "PP training/inference overhead per query (a=0.95)"}
	tb := &table{header: []string{"query", "#PPs", "PP inf/row", "Sub.UDF/row", "selectivity", "reduction"}}
	wall := &table{header: []string{"query", "PP cons."}}
	focus := map[string]bool{"Q4": true, "Q8": true, "Q20": true}
	var avgCons time.Duration
	var avgPPs, avgInf, avgUDF, avgSel, avgRed float64
	for _, q := range TRAF20 {
		pred := query.MustParse(q.Pred)
		nopPlan, u, err := h.NoPPlan(pred)
		if err != nil {
			return nil, err
		}
		nop, err := engine.Run(nopPlan, engine.Config{})
		if err != nil {
			return nil, err
		}
		plan, dec, err := h.PPPlan(pred, 0.95)
		if err != nil {
			return nil, err
		}
		res, err := engine.Run(plan, engine.Config{})
		if err != nil {
			return nil, err
		}
		// Construction time: sum of the chosen PPs' individual train times.
		// Negation-derived PPs (e.g. PP[c!=white]) reuse the classifier of
		// their base clause (§5.6), so the base clause's training time is
		// attributed.
		var cons time.Duration
		nPPs := 0
		if dec.Inject {
			nPPs = dec.NumPPs
			for _, clause := range dec.LeafClauses() {
				if d, ok := h.PPTrainTime[clause]; ok {
					cons += d
					continue
				}
				if base, ok := negatedClauseKey(clause); ok {
					cons += h.PPTrainTime[base]
				}
			}
		}
		sel := float64(len(nop.Rows)) / float64(len(h.TestBlobs))
		red := (nop.ClusterTime - res.ClusterTime) / nop.ClusterTime
		if focus[q.ID] {
			tb.add(q.ID, fmt.Sprintf("%d", nPPs),
				f2(dec.Cost)+"ms", f2(u)+"ms", f3(sel), fmt.Sprintf("%.0f%%", red*100))
			wall.add(q.ID, cons.Round(time.Millisecond).String())
		}
		avgCons += cons
		avgPPs += float64(nPPs)
		avgInf += dec.Cost
		avgUDF += u
		avgSel += sel
		avgRed += red
	}
	n := float64(len(TRAF20))
	tb.add("Avg.", fmt.Sprintf("%.1f", avgPPs/n), f2(avgInf/n)+"ms", f2(avgUDF/n)+"ms",
		f3(avgSel/n), fmt.Sprintf("%.0f%%", avgRed/n*100))
	wall.add("Avg.", (time.Duration(float64(avgCons) / n)).Round(time.Millisecond).String())
	rep.Lines = tb.render()
	rep.Wall = wall.render()
	rep.metric("avg_num_pps", avgPPs/n)
	rep.metric("avg_pp_cost_per_row", avgInf/n)
	rep.metric("avg_udf_cost_per_row", avgUDF/n)
	rep.metric("avg_selectivity", avgSel/n)
	rep.metric("avg_cluster_reduction", avgRed/n)
	return rep, nil
}

// negatedClauseKey returns the base clause key of a negation-derived PP
// clause ("c!=white" → "c=white"), and whether the key parses as a simple
// clause at all.
func negatedClauseKey(clause string) (string, bool) {
	p, err := query.Parse(clause)
	if err != nil {
		return "", false
	}
	cl, ok := p.(*query.Clause)
	if !ok {
		return "", false
	}
	return cl.Negate().String(), true
}

// Table10 regenerates Table 10: the optimizer in action — number of
// feasible PP expressions, the range of estimated reductions, the picked
// plan and alternates, for the full 32-PP corpus and for a half corpus.
func Table10(cfg Config) (*Report, error) {
	h, err := NewTrafficHarness(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "table10", Title: "QO plan exploration: full corpus vs half corpus (a=0.95)"}
	preds := []struct {
		label string
		pred  string
	}{
		{"t in {SUV,van}", "t in {SUV, van}"},
		{"s>60 & s<65", "s>60 & s<65"},
		{"4-clause conj", "s>60 & s<65 & c=white & t in {SUV, van}"},
	}
	run := func(opt *optimizer.Optimizer, corpusName string) error {
		rep.addf("-- corpus: %s --", corpusName)
		for _, p := range preds {
			pred := query.MustParse(p.pred)
			sel, err := h.Selectivity(pred)
			if err != nil {
				return err
			}
			dec, err := opt.Optimize(pred, optimizer.Options{
				Accuracy: 0.95, UDFCost: 100, Domains: data.TrafficDomains(),
			})
			if err != nil {
				return err
			}
			lo, hi := reductionRange(dec)
			rep.addf("%-16s sel=%.2f  #plans=%d  est r=%.2f-%.2f", p.label, sel,
				dec.NumCandidates, lo, hi)
			if dec.Inject {
				rep.addf("  picked: %s (est r=%.2f)", dec.Expr, dec.Reduction)
				for i, alt := range dec.Alternatives {
					if i == 0 || i > 2 {
						continue // 0 is the picked plan; show two alternates
					}
					rep.addf("  alt:    %s (est r=%.2f)", alt.Expr, alt.Reduction)
				}
			} else {
				rep.addf("  picked: none (run as-is)")
			}
		}
		return nil
	}
	if err := run(h.Opt, "full (32 PPs)"); err != nil {
		return nil, err
	}
	// Half corpus: drop every other PP per column group, deterministically.
	halfCorpus := optimizer.NewCorpus()
	for i, clause := range corpusClauses() {
		if i%2 == 1 {
			continue
		}
		if pp, ok := h.Opt.Corpus().Get(clause); ok {
			halfCorpus.Add(pp)
		}
	}
	if err := run(optimizer.New(halfCorpus), fmt.Sprintf("half (%d PPs)", halfCorpus.Size())); err != nil {
		return nil, err
	}
	return rep, nil
}

// reductionRange returns the min and max estimated reduction across a
// decision's candidate expressions.
func reductionRange(dec *optimizer.Decision) (lo, hi float64) {
	if len(dec.Alternatives) == 0 {
		return 0, 0
	}
	lo, hi = 1, 0
	for _, a := range dec.Alternatives {
		lo = mathx.Clamp(min(lo, a.Reduction), 0, 1)
		hi = mathx.Clamp(max(hi, a.Reduction), 0, 1)
	}
	return lo, hi
}
