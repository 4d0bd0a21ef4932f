package bench

import (
	"fmt"
	"time"

	"probpred/internal/blob"
	"probpred/internal/dimred"
	"probpred/internal/dnn"
	"probpred/internal/kde"
	"probpred/internal/mathx"
	"probpred/internal/query"
	"probpred/internal/svm"
)

// Table2 backs the paper's analytical complexity table with measurements:
// for each approach it times training and testing at size n and 2n (and
// dimension d and 2d) and reports the observed scaling ratios. A ratio near
// 2 indicates linear scaling in that variable, near 1 indicates
// insensitivity, near 4 quadratic. The ratios are wall clock, so the table
// is the report's Wall.
func Table2(cfg Config) (*Report, error) {
	rep := &Report{ID: "table2", Title: "Empirical scaling of PP approaches (ratios when n or d doubles)"}
	n := cfg.scale(2000, 800)
	d := cfg.scale(64, 32)
	tb := &table{header: []string{"approach", "train ×n", "train ×d", "test ×n", "test ×d"}}

	type timings struct{ train, test time.Duration }
	measure := func(n, d int, approach string) (timings, error) {
		xs, ys := gaussianLabeled(n, d, cfg.Seed)
		var tr timings
		start := time.Now()
		var score func(mathx.Vec) float64
		switch approach {
		case "SVM":
			m, err := svm.Train(xs, ys, svm.Config{Seed: 1})
			if err != nil {
				return tr, err
			}
			score = m.Score
		case "KDE":
			m, err := kde.Train(xs, ys, kde.Config{Seed: 1})
			if err != nil {
				return tr, err
			}
			score = m.Score
		case "DNN":
			m, err := dnn.Train(xs, ys, dnn.Config{Epochs: 5, Seed: 1})
			if err != nil {
				return tr, err
			}
			score = m.Score
		case "PCA+SVM":
			blobs := make([]blob.Blob, len(xs))
			for i, x := range xs {
				blobs[i] = blob.FromDense(i, x)
			}
			pca, err := dimred.FitPCA(blobs[:min(400, len(blobs))], 8, mathx.NewRNG(1))
			if err != nil {
				return tr, err
			}
			red := make([]mathx.Vec, len(xs))
			for i, b := range blobs {
				red[i] = pca.Reduce(b)
			}
			m, err := svm.Train(red, ys, svm.Config{Seed: 1})
			if err != nil {
				return tr, err
			}
			score = func(x mathx.Vec) float64 {
				return m.Score(pca.Reduce(blob.FromDense(0, x)))
			}
		default:
			return tr, fmt.Errorf("bench: unknown approach %q", approach)
		}
		tr.train = time.Since(start)
		start = time.Now()
		for i := 0; i < 2000; i++ {
			score(xs[i%len(xs)])
		}
		tr.test = time.Since(start)
		return tr, nil
	}

	ratio := func(a, b time.Duration) string {
		if a == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1fx", float64(b)/float64(a))
	}
	for _, approach := range []string{"SVM", "KDE", "DNN", "PCA+SVM"} {
		base, err := measure(n, d, approach)
		if err != nil {
			return nil, err
		}
		bigN, err := measure(2*n, d, approach)
		if err != nil {
			return nil, err
		}
		bigD, err := measure(n, 2*d, approach)
		if err != nil {
			return nil, err
		}
		tb.add(approach,
			ratio(base.train, bigN.train), ratio(base.train, bigD.train),
			ratio(base.test, bigN.test), ratio(base.test, bigD.test))
	}
	rep.Wall = tb.render()
	rep.addf("expectations from Table 2: SVM train ~linear in n and d, test independent of n;")
	rep.addf("KDE test grows with n (neighbourhood retrieval); DNN dominated by parameter count (×d).")
	return rep, nil
}

// gaussianLabeled draws n d-dim points with a linear ground-truth label.
func gaussianLabeled(n, d int, seed uint64) ([]mathx.Vec, []bool) {
	rng := mathx.NewRNG(seed ^ 0x7ab1e2)
	xs := make([]mathx.Vec, n)
	ys := make([]bool, n)
	for i := range xs {
		v := make(mathx.Vec, d)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		xs[i] = v
		ys[i] = v[0]+v[1] > 0.5
	}
	return xs, ys
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Table7 regenerates the Table 7 workload characterization: every TRAF-20
// query with its predicate shape tags and measured selectivity — the
// benchmark's ground truth rather than an experiment.
func Table7(cfg Config) (*Report, error) {
	h, err := NewTrafficHarness(cfg)
	if err != nil {
		return nil, err
	}
	rep := &Report{ID: "table7", Title: "TRAF-20 predicates: shape and measured selectivity"}
	tb := &table{header: []string{"query", "#clauses", "shape", "selectivity", "predicate"}}
	for _, q := range TRAF20 {
		pred := query.MustParse(q.Pred)
		sel, err := h.Selectivity(pred)
		if err != nil {
			return nil, err
		}
		tb.add(q.ID, fmt.Sprintf("%d", len(query.Clauses(pred))), shapeTags(pred),
			f3(sel), q.Pred)
	}
	rep.Lines = tb.render()
	return rep, nil
}

// shapeTags renders the Table 7 shape code: E equality, I inequality,
// N numeric comparison, R range, C conjunction, D disjunction.
func shapeTags(p query.Pred) string {
	tags := map[byte]bool{}
	byCol := map[string][]*query.Clause{}
	for _, cl := range query.Clauses(p) {
		byCol[cl.Col] = append(byCol[cl.Col], cl)
		switch cl.Op {
		case query.OpEq:
			if cl.Val.IsNum {
				tags['N'] = true
			} else {
				tags['E'] = true
			}
		case query.OpNe:
			tags['I'] = true
		default:
			tags['N'] = true
		}
	}
	for _, cls := range byCol {
		lower, upper := false, false
		for _, cl := range cls {
			switch cl.Op {
			case query.OpGt, query.OpGe:
				lower = true
			case query.OpLt, query.OpLe:
				upper = true
			}
		}
		if lower && upper {
			tags['R'] = true
		}
	}
	var walk func(query.Pred)
	walk = func(q query.Pred) {
		switch n := q.(type) {
		case *query.And:
			tags['C'] = true
			for _, k := range n.Kids {
				walk(k)
			}
		case *query.Or:
			tags['D'] = true
			for _, k := range n.Kids {
				walk(k)
			}
		case *query.Not:
			walk(n.Kid)
		}
	}
	walk(p)
	out := ""
	for _, c := range []byte{'E', 'I', 'N', 'R', 'C', 'D'} {
		if tags[c] {
			out += string(c)
		}
	}
	if out == "" {
		out = "-"
	}
	return out
}
