package bench

import (
	"fmt"
	"time"

	"probpred/internal/baseline"
	"probpred/internal/core"
	"probpred/internal/data"
	"probpred/internal/dimred"
	"probpred/internal/mathx"
)

// Fig9 regenerates Figure 9: whisker statistics of the data reduction rate
// r(a] across single-clause queries on each dataset, with the dataset's
// winning PP technique.
func Fig9(cfg Config) (*Report, error) {
	rep := &Report{ID: "fig9", Title: "Data reduction rates across datasets (whisker stats, a=1.0)"}
	nCats := cfg.scale(12, 5)
	tb := &table{header: []string{"dataset", "approach", "a", "min", "p25", "p50", "p75", "max", "mean", "queries"}}
	targets := []float64{1.0, 0.99, 0.95}
	for _, spec := range specs(cfg) {
		d := spec.make(cfg)
		reductions := make([][]float64, len(targets))
		for _, k := range pickCategories(d, nCats, 40) {
			pp, test, err := trainCategoryPP(d, k, spec.approach, cfg.Seed)
			if err != nil {
				return nil, err
			}
			for i, a := range targets {
				reductions[i] = append(reductions[i], core.Evaluate(pp, test, a).Reduction)
			}
		}
		for i, a := range targets {
			s := mathx.Summarize(reductions[i])
			tb.add(spec.name, spec.approach, f2(a), f3(s.Min), f3(s.P25), f3(s.P50),
				f3(s.P75), f3(s.Max), f3(s.Mean), fmt.Sprintf("%d", s.N))
		}
	}
	rep.Lines = tb.render()
	return rep, nil
}

// Table4 regenerates Table 4: average data reduction by approach and
// accuracy target, including the COCO→ImageNet cross-training row.
func Table4(cfg Config) (*Report, error) {
	rep := &Report{ID: "table4", Title: "Data reduction by PP approach: r(1], r(0.99], r(0.9]"}
	nCats := cfg.scale(8, 4)
	accuracies := []float64{1.0, 0.99, 0.9}
	tb := &table{header: []string{"dataset", "approach", "r(1]", "r(0.99]", "r(0.9]"}}

	ucf := data.UCF101(data.UCFConfig{Clips: 2400, Seed: cfg.Seed}) // KDE needs density; keep full scale
	for _, approach := range []string{"PCA+KDE", "PCA+SVM", "Raw+SVM"} {
		avg, err := avgReduction(ucf, nCats, approach, cfg.Seed, accuracies)
		if err != nil {
			return nil, err
		}
		tb.add("ucf101", approach, f3(avg[0]), f3(avg[1]), f3(avg[2]))
	}
	coco := data.COCO(cfg.Seed)
	for _, approach := range []string{"DNN", "PCA+SVM"} {
		avg, err := avgReduction(coco, nCats, approach, cfg.Seed, accuracies)
		if err != nil {
			return nil, err
		}
		tb.add("coco", approach, f3(avg[0]), f3(avg[1]), f3(avg[2]))
	}
	inet := data.ImageNet(cfg.Seed)
	for _, approach := range []string{"DNN", "PCA+SVM"} {
		avg, err := avgReduction(inet, nCats, approach, cfg.Seed, accuracies)
		if err != nil {
			return nil, err
		}
		tb.add("imagenet", approach, f3(avg[0]), f3(avg[1]), f3(avg[2]))
	}
	// Cross-training: DNN PPs trained on COCO-like data, applied to the
	// ImageNet-like test distribution with their COCO-calibrated thresholds.
	cats := pickCategories(coco, nCats, 40)
	cross := make([]float64, len(accuracies))
	for _, k := range cats {
		pp, _, err := trainCategoryPP(coco, k, "DNN", cfg.Seed)
		if err != nil {
			return nil, err
		}
		target := inet.SetFor(k)
		for i, a := range accuracies {
			cross[i] += core.Evaluate(pp, target, a).Reduction
		}
	}
	for i := range cross {
		cross[i] /= float64(len(cats))
	}
	tb.add("imagenet", "DNN trained on coco", f3(cross[0]), f3(cross[1]), f3(cross[2]))
	rep.Lines = tb.render()
	return rep, nil
}

func avgReduction(d *data.Categorical, nCats int, approach string, seed uint64, accuracies []float64) ([]float64, error) {
	cats := pickCategories(d, nCats, 40)
	if len(cats) == 0 {
		return nil, fmt.Errorf("bench: no usable categories in %s", d.Name)
	}
	out := make([]float64, len(accuracies))
	for _, k := range cats {
		pp, test, err := trainCategoryPP(d, k, approach, seed)
		if err != nil {
			return nil, err
		}
		for i, a := range accuracies {
			out[i] += core.Evaluate(pp, test, a).Reduction
		}
	}
	for i := range out {
		out[i] /= float64(len(cats))
	}
	return out, nil
}

// Table5 regenerates Table 5: the optimality gap (relative reduction) at a=1
// and a=0.9 per PP type, and in Wall its train/test latency.
func Table5(cfg Config) (*Report, error) {
	rep := &Report{ID: "table5", Title: "PP train cost (per 1K rows), test cost (per row), optimality r/(1-s)"}
	nCats := cfg.scale(6, 3)
	tb := &table{header: []string{"dataset", "approach", "opt(a=1)", "opt(a=0.9)"}}
	wall := &table{header: []string{"dataset", "approach", "train/1K", "test/row"}}
	rows := []struct {
		spec     datasetSpec
		approach string
	}{
		{specs(cfg)[2], "PCA+KDE"}, // ucf101
		{specs(cfg)[0], "FH+SVM"},  // lshtc
		{specs(cfg)[3], "DNN"},     // coco
	}
	for _, row := range rows {
		d := row.spec.make(cfg)
		cats := pickCategories(d, nCats, 40)
		var trainPerK, testPerRow time.Duration
		var opt1, opt09 float64
		for _, k := range cats {
			pp, test, err := trainCategoryPP(d, k, row.approach, cfg.Seed)
			if err != nil {
				return nil, err
			}
			trainPerK += time.Duration(float64(pp.TrainDuration) * 1000 / float64(pp.TrainN))
			// Timed through the batch path queries score by: a lone Score
			// runs a DNN PP's whole eight-row tile for one row.
			scores := make([]float64, test.Len())
			start := time.Now()
			pp.ScoreBatch(test.Blobs, scores)
			testPerRow += time.Duration(float64(time.Since(start)) / float64(test.Len()))
			m1 := core.Evaluate(pp, test, 1)
			m09 := core.Evaluate(pp, test, 0.9)
			opt1 += m1.RelativeReduction
			opt09 += m09.RelativeReduction
		}
		n := float64(len(cats))
		tb.add(d.Name, row.approach, f3(opt1/n), f3(opt09/n))
		wall.add(d.Name, row.approach,
			(time.Duration(float64(trainPerK) / n)).Round(time.Millisecond).String(),
			(time.Duration(float64(testPerRow) / n)).Round(time.Microsecond).String())
	}
	rep.Lines = tb.render()
	rep.Wall = wall.render()
	return rep, nil
}

// Table6 regenerates Table 6: PPs versus the Joglekar et al. [27] baseline
// (raw and PCA-fed) at accuracy targets 0.99 and 0.90.
func Table6(cfg Config) (*Report, error) {
	rep := &Report{ID: "table6", Title: "Reduction rates: PP vs Joglekar et al. [27] (raw and PCA-fed)"}
	nQueries := cfg.scale(10, 4)
	dsets := []datasetSpec{specs(cfg)[0], specs(cfg)[1], specs(cfg)[2]} // lshtc, sun, ucf101
	targets := []float64{0.99, 0.90}
	// r[i][j] holds target i's mean reduction on dataset j of the PP, the
	// PCA-fed Joglekar filter and the raw Joglekar filter.
	var r [2][3][3]float64
	for j, spec := range dsets {
		d := spec.make(cfg)
		cats := pickCategories(d, nQueries, 40)
		for _, k := range cats {
			set := d.SetFor(k)
			rng := mathx.NewRNG(cfg.Seed ^ uint64(k)*0x77)
			train, val, test := set.Split(rng, 0.6, 0.2)
			clause := fmt.Sprintf("%s.cat=%d", d.Name, k)

			pp, err := core.Train(clause, train, val, core.TrainConfig{
				Approach: spec.approach, Seed: cfg.Seed + uint64(k)})
			if err != nil {
				return nil, err
			}
			// The baseline combines a handful of correlated columns (its
			// per-distinct-value state grows exponentially in the columns
			// it conditions on, §3), which lets it filter some of the
			// sparse text inputs but little of the dense blobs (§8.1).
			jog, err := baseline.JoglekarFilter(clause, dimred.Identity{Dim: set.Dim()},
				train, val, baseline.CorrelationConfig{TopColumns: 4})
			if err != nil {
				return nil, err
			}
			pca, err := dimred.FitPCA(train.Sample(rng, 400).Blobs, 8, mathx.NewRNG(cfg.Seed^0x9))
			if err != nil {
				return nil, err
			}
			pcaJog, err := baseline.JoglekarFilter(clause, pca, train, val,
				baseline.CorrelationConfig{TopColumns: 4})
			if err != nil {
				return nil, err
			}
			for i, a := range targets {
				for f, filter := range []*core.PP{pp, pcaJog, jog} {
					r[i][j][f] += core.Evaluate(filter, test, a).Reduction
				}
			}
		}
		for i := range targets {
			for f := range r[i][j] {
				r[i][j][f] /= float64(len(cats))
			}
		}
	}
	for i, a := range targets {
		tb := &table{header: []string{fmt.Sprintf("a=%.2f", a), "lshtc", "sun", "ucf101"}}
		ppRow := []string{"PP"}
		pcaJogRow := []string{"PCA+Joglekar"}
		jogRow := []string{"Joglekar"}
		speedPCARow := []string{"speed-up vs PCA+Jog"}
		speedRow := []string{"speed-up vs Jog"}
		for _, red := range r[i] {
			ppR, pcaJogR, jogR := red[0], red[1], red[2]
			ppRow = append(ppRow, f3(ppR))
			pcaJogRow = append(pcaJogRow, f3(pcaJogR))
			jogRow = append(jogRow, f3(jogR))
			speedPCARow = append(speedPCARow, f2((1-pcaJogR)/(1-ppR))+"x")
			speedRow = append(speedRow, f2((1-jogR)/(1-ppR))+"x")
		}
		tb.add(ppRow...)
		tb.add(pcaJogRow...)
		tb.add(speedPCARow...)
		tb.add(jogRow...)
		tb.add(speedRow...)
		rep.Lines = append(rep.Lines, tb.render()...)
		rep.Lines = append(rep.Lines, "")
	}
	return rep, nil
}

// Table13 regenerates Table 13 (Appendix B): reduction / achieved accuracy
// as the training-set fraction grows, and in Wall the training time per 1K
// rows.
func Table13(cfg Config) (*Report, error) {
	rep := &Report{ID: "table13", Title: "Reduction/accuracy/train-time vs training-set size (a target 0.99)"}
	header := []string{"dataset", "approach", "ts=30%", "ts=40%", "ts=50%"}
	tb, wall := &table{header: header}, &table{header: header}
	rows := []struct {
		spec     datasetSpec
		approach string
	}{
		{specs(cfg)[1], "PCA+KDE"}, // sun
		{specs(cfg)[2], "PCA+KDE"}, // ucf101
		{specs(cfg)[2], "Raw+SVM"}, // ucf101
		{specs(cfg)[0], "FH+SVM"},  // lshtc
		{specs(cfg)[3], "DNN"},     // coco
	}
	nCats := cfg.scale(5, 3)
	for _, row := range rows {
		d := row.spec.make(cfg)
		cats := pickCategories(d, nCats, 60)
		cells := []string{d.Name, row.approach}
		times := []string{d.Name, row.approach}
		for _, ts := range []float64{0.3, 0.4, 0.5} {
			var r, acc float64
			var perK time.Duration
			for _, k := range cats {
				set := d.SetFor(k)
				rng := mathx.NewRNG(cfg.Seed ^ uint64(k)*0x7a ^ uint64(ts*100))
				train, val, test := set.Split(rng, ts, 0.2)
				pp, err := core.Train(fmt.Sprintf("cat=%d", k), train, val, core.TrainConfig{
					Approach: row.approach, Seed: cfg.Seed + uint64(k)})
				if err != nil {
					return nil, err
				}
				m := core.Evaluate(pp, test, 0.99)
				r += m.Reduction
				acc += m.Accuracy
				perK += time.Duration(float64(pp.TrainDuration) * 1000 / float64(pp.TrainN))
			}
			n := float64(len(cats))
			cells = append(cells, f2(r/n)+"/"+f2(acc/n))
			times = append(times, time.Duration(float64(perK)/n).Round(time.Millisecond).String())
		}
		tb.add(cells...)
		wall.add(times...)
	}
	rep.Lines = tb.render()
	rep.Wall = wall.render()
	return rep, nil
}

// Fig15 regenerates the Figure 15/16 demonstration: per-blob confidences of
// four PPs on sample blobs, trained on COCO-like data and applied both
// in-domain and cross-domain (ImageNet-like).
func Fig15(cfg Config) (*Report, error) {
	rep := &Report{ID: "fig15", Title: "PP confidences f(x) for 4 PPs on 12 sample blobs (in-domain and cross-domain)"}
	coco := data.COCO(cfg.Seed)
	inet := data.ImageNet(cfg.Seed)
	catNames := []string{"person", "bicycle", "car", "dog"}
	cats := pickCategories(coco, 4, 40)
	if len(cats) < 4 {
		return nil, fmt.Errorf("bench: not enough categories")
	}
	var pps []*core.PP
	for _, k := range cats {
		pp, _, err := trainCategoryPP(coco, k, "DNN", cfg.Seed)
		if err != nil {
			return nil, err
		}
		pps = append(pps, pp)
	}
	for _, domain := range []struct {
		name string
		d    *data.Categorical
	}{{"coco (in-domain)", coco}, {"imagenet (cross-domain)", inet}} {
		tb := &table{header: append([]string{"blob"}, catNames...)}
		tb.header = append(tb.header, "truth")
		for _, idx := range curatedSamples(domain.d, cats) {
			b := domain.d.Blobs[idx]
			cells := []string{fmt.Sprintf("#%d", idx)}
			for _, pp := range pps {
				cells = append(cells, f2(mathx.Sigmoid(pp.Score(b))))
			}
			truth := ""
			for j, k := range cats {
				if domain.d.Members[k][idx] {
					truth += catNames[j] + " "
				}
			}
			if truth == "" {
				truth = "-"
			}
			tb.add(append(cells, truth)...)
		}
		rep.Lines = append(rep.Lines, domain.name+":")
		rep.Lines = append(rep.Lines, tb.render()...)
		rep.Lines = append(rep.Lines, "")
	}
	return rep, nil
}

// curatedSamples picks two members of each category plus four non-members,
// like the paper's hand-picked demonstration images.
func curatedSamples(d *data.Categorical, cats []int) []int {
	var out []int
	used := map[int]bool{}
	for _, k := range cats {
		picked := 0
		for i := range d.Blobs {
			if picked == 2 {
				break
			}
			if d.Members[k][i] && !used[i] {
				out = append(out, i)
				used[i] = true
				picked++
			}
		}
	}
	negatives := 0
	for i := range d.Blobs {
		if negatives == 4 {
			break
		}
		member := false
		for _, k := range cats {
			member = member || d.Members[k][i]
		}
		if !member && !used[i] {
			out = append(out, i)
			used[i] = true
			negatives++
		}
	}
	return out
}
