// Package kde implements the kernel-density-estimation PP classifier of
// §5.2: two class-conditional densities d+ and d− are estimated with a
// Gaussian kernel (Eq. 6) and the classifier scores f(ψ(x)) = d+/d− (Eq. 5).
//
// As the paper's usage note prescribes, test-time density evaluation is
// approximated by summing the kernel over the query's n′ nearest neighbours
// in each class instead of over the entire training set. The note retrieves
// them with a k-d tree; we scan every training point instead (package knn).
// On whitened PCA features of d = 8 a tree visits most points anyway, and
// the flat scan, sixteen points per SIMD kernel call, is about twice as fast
// with the same exact neighbour lists. Measured test cost is therefore
// linear in n; the virtual cost keeps the note's O(n′ log n) (Cost).
package kde

import (
	"fmt"
	"math"
	"sync"

	"probpred/internal/knn"
	"probpred/internal/mathx"
)

// Config controls training.
type Config struct {
	// Bandwidth fixes the kernel bandwidth h. Zero selects it automatically:
	// Silverman's rule of thumb [45] provides the initial value and a small
	// cross-validation sweep around it picks the final one (§5.2).
	Bandwidth float64
	// Neighbors is n′, the number of nearest neighbours per class used to
	// approximate each density at test time. Zero selects a default (25).
	Neighbors int
	// Seed seeds the internal cross-validation split.
	Seed uint64
}

func (c *Config) fill() {
	if c.Neighbors == 0 {
		c.Neighbors = 25
	}
}

// Model is a trained KDE classifier.
type Model struct {
	pos, neg  *knn.Index
	h         float64
	neighbors int
	dim       int
	// scratch recycles KNN query buffers across Score calls. Scoring must be
	// safe for concurrent use (parallel engine chunks share one Model), so
	// buffers are pooled rather than owned outright. The zero pool is valid,
	// which keeps gob-decoded models working without a constructor.
	scratch sync.Pool
}

// scratch holds one query's buffers for each class, so both neighbour lists
// stay valid together.
type scratch struct{ pos, neg knn.Scratch }

// getScratch returns a reusable KNN scratch, allocating only on pool misses.
func (m *Model) getScratch() *scratch {
	if s, ok := m.scratch.Get().(*scratch); ok {
		return s
	}
	return &scratch{}
}

// Train builds class-conditional density estimators from feature vectors xs
// and labels ys.
func Train(xs []mathx.Vec, ys []bool, cfg Config) (*Model, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("kde: empty training set")
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("kde: %d examples but %d labels", len(xs), len(ys))
	}
	cfg.fill()
	var posPts, negPts []mathx.Vec
	for i, x := range xs {
		if ys[i] {
			posPts = append(posPts, x)
		} else {
			negPts = append(negPts, x)
		}
	}
	if len(posPts) == 0 || len(negPts) == 0 {
		return nil, fmt.Errorf("kde: training set has a single class (%d/%d positive)", len(posPts), len(xs))
	}
	dim := len(xs[0])
	m := &Model{neighbors: cfg.Neighbors, dim: dim}
	if cfg.Bandwidth > 0 {
		m.h = cfg.Bandwidth
		m.pos = knn.Build(posPts)
		m.neg = knn.Build(negPts)
		return m, nil
	}
	h0 := silverman(xs)
	// Cross-validate h over a small multiplicative grid: hold out 20% of
	// each class, fit on the rest, pick the h with best held-out accuracy.
	// Neighbour lists do not depend on h, so each held-out point is queried
	// once and its lists scored at every candidate.
	rng := mathx.NewRNG(cfg.Seed)
	trPos, vaPos := holdout(posPts, rng)
	trNeg, vaNeg := holdout(negPts, rng)
	cand := &Model{pos: knn.Build(trPos), neg: knn.Build(trNeg), neighbors: cfg.Neighbors, dim: dim}
	mults := [...]float64{0.5, 1, 2, 4}
	var correct [len(mults)]int
	var s scratch
	tally := func(va []mathx.Vec, right func(score float64) bool) {
		for _, x := range va {
			pos, neg := cand.neighbours(x, &s)
			for c, mult := range mults {
				if right(cand.logRatio(pos, neg, h0*mult)) {
					correct[c]++
				}
			}
		}
	}
	tally(vaPos, func(score float64) bool { return score > 0 })
	tally(vaNeg, func(score float64) bool { return score <= 0 })
	bestH, bestAcc := h0, -1.0
	for c, mult := range mults {
		if acc := float64(correct[c]) / float64(len(vaPos)+len(vaNeg)); acc > bestAcc {
			bestAcc, bestH = acc, h0*mult
		}
	}
	m.h = bestH
	m.pos = knn.Build(posPts)
	m.neg = knn.Build(negPts)
	return m, nil
}

// holdout splits pts 80/20; it guarantees at least one point on each side
// when there are at least two points.
func holdout(pts []mathx.Vec, rng *mathx.RNG) (train, val []mathx.Vec) {
	if len(pts) < 2 {
		return pts, pts
	}
	perm := rng.Perm(len(pts))
	nVal := len(pts) / 5
	if nVal == 0 {
		nVal = 1
	}
	for i, p := range perm {
		if i < nVal {
			val = append(val, pts[p])
		} else {
			train = append(train, pts[p])
		}
	}
	return train, val
}

// silverman computes Silverman's rule-of-thumb bandwidth averaged across
// dimensions: h = 1.06 σ n^{-1/5}. One column buffer is reused across all d
// per-dimension deviation sweeps, so the whole estimate costs a single
// scratch allocation regardless of dimensionality.
func silverman(xs []mathx.Vec) float64 {
	n := len(xs)
	dim := len(xs[0])
	col := make([]float64, n)
	sigma := 0.0
	for j := 0; j < dim; j++ {
		for i, x := range xs {
			col[i] = x[j]
		}
		sigma += mathx.StdDev(col)
	}
	sigma /= float64(dim)
	if sigma == 0 {
		sigma = 1
	}
	return 1.06 * sigma * math.Pow(float64(n), -0.2)
}

// neighbours returns x's n′ nearest neighbours in each class, ascending,
// through the caller's scratch so steady-state scoring does not allocate.
func (m *Model) neighbours(x mathx.Vec, s *scratch) (pos, neg []knn.Result) {
	return m.pos.KNNInto(x, m.neighbors, &s.pos), m.neg.KNNInto(x, m.neighbors, &s.neg)
}

// density estimates a class-conditional density from the query's nearest
// neighbours in a class of n points with a Gaussian kernel of bandwidth h,
// normalized by the class size so that the d+/d− ratio accounts for class
// imbalance.
func density(nbrs []knn.Result, n int, h float64) float64 {
	sum := 0.0
	for _, r := range nbrs {
		sum += math.Exp(-r.SqDist / (2 * h * h))
	}
	return sum / float64(n)
}

// logRatio is the score of a query with neighbour lists pos and neg at
// bandwidth h: Score and the bandwidth sweep both go through it.
func (m *Model) logRatio(pos, neg []knn.Result, h float64) float64 {
	const eps = 1e-12
	dp := density(pos, m.pos.Len(), h)
	dn := density(neg, m.neg.Len(), h)
	return math.Log(dp+eps) - math.Log(dn+eps)
}

// Score returns log(d+(x)/d−(x)) with additive smoothing; larger values mean
// the blob is more likely to satisfy the predicate. The log keeps scores on
// an additive scale so that threshold sweeps (Eq. 3) are well conditioned.
func (m *Model) Score(x mathx.Vec) float64 {
	s := m.getScratch()
	v := m.score(x, s)
	m.scratch.Put(s)
	return v
}

// score is Score over explicit scratch buffers.
func (m *Model) score(x mathx.Vec, s *scratch) float64 {
	pos, neg := m.neighbours(x, s)
	return m.logRatio(pos, neg, m.h)
}

// ScoreBatch scores the len(out) vectors stored row-major in xs (row i is
// xs[i*d:(i+1)*d]) into out. It is a loop over score holding one KNN scratch
// for the whole batch instead of hitting the pool per row, not a kernel of
// its own; rows share nothing. Each row's score is a function of the exact
// k-NN distance list alone (full index-order SqDist per neighbour, summed in
// ascending order), so batch and scalar scores are bit-identical — the
// invariant core.PP's batch path relies on. It implements
// core.Scorer.
func (m *Model) ScoreBatch(xs []float64, d int, out []float64) {
	s := m.getScratch()
	for i := range out {
		out[i] = m.score(xs[i*d:(i+1)*d], s)
	}
	m.scratch.Put(s)
}

// Name identifies the classifier family.
func (m *Model) Name() string { return "KDE" }

// Bandwidth exposes the selected kernel bandwidth (for tests and reports).
func (m *Model) Bandwidth() float64 { return m.h }

// Cost returns the virtual per-blob scoring cost in virtual milliseconds:
// two k-NN searches of n′ neighbours each, O(n′ log n) retrieval plus O(n′ d)
// kernel evaluation (Table 2). The constants put a PCA+KDE PP near the
// ~3 ms/row the paper measures (Table 5).
func (m *Model) Cost() float64 {
	n := float64(m.pos.Len() + m.neg.Len())
	logN := math.Log2(n + 2)
	return 1.0 + float64(1e-3*float64(m.neighbors)*(logN+float64(m.dim)))
}
