// Package kde implements the kernel-density-estimation PP classifier of
// §5.2: two class-conditional densities d+ and d− are estimated with a
// Gaussian kernel (Eq. 6) and the classifier scores f(ψ(x)) = d+/d− (Eq. 5).
//
// As the paper's usage note prescribes, test-time density evaluation is
// approximated by retrieving a neighbourhood of the query from a k-d tree
// instead of summing over the entire training set, giving O(n′ log d) cost
// per input (Table 2).
package kde

import (
	"fmt"
	"math"
	"sync"

	"probpred/internal/kdtree"
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
	pos, neg  *kdtree.Tree
	h         float64
	neighbors int
	dim       int
	// scratch recycles KNN query buffers across Score calls. Scoring must be
	// safe for concurrent use (parallel engine chunks share one Model), so
	// buffers are pooled rather than owned outright. The zero pool is valid,
	// which keeps gob-decoded models working without a constructor.
	scratch sync.Pool
}

// getScratch returns a reusable KNN scratch, allocating only on pool misses.
func (m *Model) getScratch() *kdtree.Scratch {
	if s, ok := m.scratch.Get().(*kdtree.Scratch); ok {
		return s
	}
	return &kdtree.Scratch{}
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
		m.pos = kdtree.Build(posPts)
		m.neg = kdtree.Build(negPts)
		return m, nil
	}
	h0 := silverman(xs)
	// Cross-validate h over a small multiplicative grid: hold out 20% of
	// each class, fit on the rest, pick the h with best held-out accuracy.
	// The trees index points, not bandwidths, so one pair serves the sweep.
	rng := mathx.NewRNG(cfg.Seed)
	trPos, vaPos := holdout(posPts, rng)
	trNeg, vaNeg := holdout(negPts, rng)
	cand := &Model{pos: kdtree.Build(trPos), neg: kdtree.Build(trNeg), neighbors: cfg.Neighbors, dim: dim}
	bestH, bestAcc := h0, -1.0
	for _, mult := range []float64{0.5, 1, 2, 4} {
		cand.h = h0 * mult
		correct := 0
		for _, x := range vaPos {
			if cand.Score(x) > 0 {
				correct++
			}
		}
		for _, x := range vaNeg {
			if cand.Score(x) <= 0 {
				correct++
			}
		}
		acc := float64(correct) / float64(len(vaPos)+len(vaNeg))
		if acc > bestAcc {
			bestAcc, bestH = acc, cand.h
		}
	}
	m.h = bestH
	m.pos = kdtree.Build(posPts)
	m.neg = kdtree.Build(negPts)
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

// density estimates the class-conditional density of x from tree, using the
// n′ nearest neighbours and a Gaussian kernel of bandwidth h, normalized by
// the class size so that the d+/d− ratio accounts for class imbalance. The
// KNN query runs through the caller's scratch so steady-state scoring does
// not allocate.
func (m *Model) density(tree *kdtree.Tree, x mathx.Vec, s *kdtree.Scratch) float64 {
	k := m.neighbors
	if k > tree.Len() {
		k = tree.Len()
	}
	sum := 0.0
	for _, r := range tree.KNNInto(x, k, s) {
		sum += math.Exp(-r.SqDist / (2 * m.h * m.h))
	}
	return sum / float64(tree.Len())
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
func (m *Model) score(x mathx.Vec, s *kdtree.Scratch) float64 {
	const eps = 1e-12
	dp := m.density(m.pos, x, s)
	dn := m.density(m.neg, x, s)
	return math.Log(dp+eps) - math.Log(dn+eps)
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
	return 1.0 + 1e-3*float64(m.neighbors)*(logN+float64(m.dim))
}
