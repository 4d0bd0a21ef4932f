// Package svm implements the linear support vector machine PP classifier of
// §5.1: f(ψ(x)) = w·ψ(x) + b, trained with the Pegasos stochastic
// sub-gradient method on the hinge loss. Linear SVMs train in (near) linear
// time (Table 2) and score in O(d) per blob.
package svm

import (
	"fmt"

	"probpred/internal/mathx"
)

// Config controls training.
type Config struct {
	// Lambda is the L2 regularization strength. Zero selects a default.
	Lambda float64
	// Epochs is the number of passes over the training data. Zero selects a
	// default.
	Epochs int
	// ClassWeightPos up-weights positive examples; useful for the low
	// selectivities typical of inference predicates. Zero selects 1.
	ClassWeightPos float64
	// Seed seeds the example-sampling stream.
	Seed uint64
	// Warm, when non-nil and dimensioned like the training data, initializes
	// the Pegasos iterate from a previously trained model instead of zero —
	// incremental training over a stream fine-tunes the prior segment's
	// model rather than relearning from scratch. A dimension mismatch falls
	// back to a cold start.
	Warm *Model
}

func (c *Config) fill() {
	if c.Lambda == 0 {
		c.Lambda = 1e-4
	}
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.ClassWeightPos == 0 {
		c.ClassWeightPos = 1
	}
}

// Model is a trained linear SVM.
type Model struct {
	W mathx.Vec
	B float64
}

// Train fits a linear SVM to feature vectors xs with binary labels ys using
// Pegasos (Shalev-Shwartz et al.), the standard linear-time linear-SVM
// trainer cited by the paper [25]. It returns an error for empty or
// mismatched input or single-class labels.
func Train(xs []mathx.Vec, ys []bool, cfg Config) (*Model, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("svm: empty training set")
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("svm: %d examples but %d labels", len(xs), len(ys))
	}
	pos := 0
	for _, y := range ys {
		if y {
			pos++
		}
	}
	if pos == 0 || pos == len(ys) {
		return nil, fmt.Errorf("svm: training set has a single class (%d/%d positive)", pos, len(ys))
	}
	cfg.fill()
	d := len(xs[0])
	// Augment every example with a constant 1 so the bias is learned and
	// regularized together with the weights; an unregularized bias receives
	// an enormous kick on the first Pegasos step (eta = 1/lambda) and never
	// recovers.
	aug := make([]mathx.Vec, len(xs))
	for i, x := range xs {
		a := make(mathx.Vec, d+1)
		copy(a, x)
		a[d] = 1
		aug[i] = a
	}
	w := make(mathx.Vec, d+1)
	rng := mathx.NewRNG(cfg.Seed)
	n := len(xs)
	totalSteps := cfg.Epochs * n
	t := 1
	if cfg.Warm != nil && len(cfg.Warm.W) == d {
		copy(w, cfg.Warm.W)
		w[d] = cfg.Warm.B
		// A warm start must also warm the step-size schedule: at t=1 the
		// shrink factor 1−eta·lambda is exactly zero and would erase the
		// carried-over weights, and any t below 1/lambda takes steps far
		// larger than the model being carried. Starting the clock at 1/lambda
		// caps eta at 1 from the first step, so training fine-tunes the prior
		// model on the fresh window instead of discarding it.
		t = int(1/cfg.Lambda) + 2
	}
	// Averaged Pegasos: the returned model is the average of the iterates
	// over the second half of training, which slashes the variance of the
	// plain SGD solution — important for the small training windows an
	// online system starts from (§4's cold start).
	avg := make(mathx.Vec, d+1)
	avgFrom := totalSteps / 2
	avgCount := 0
	steps := 1
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for step := 0; step < n; step++ {
			i := rng.Intn(n)
			x := aug[i]
			y := -1.0
			weight := 1.0
			if ys[i] {
				y = 1.0
				weight = cfg.ClassWeightPos
			}
			eta := 1 / (cfg.Lambda * float64(t))
			margin := y * mathx.Dot(w, x)
			// Regularization shrink.
			mathx.Scale(1-eta*cfg.Lambda, w)
			if margin < 1 {
				mathx.Axpy(eta*y*weight, x, w)
			}
			if steps > avgFrom {
				mathx.Axpy(1, w, avg)
				avgCount++
			}
			t++
			steps++
		}
	}
	if avgCount > 0 {
		mathx.Scale(1/float64(avgCount), avg)
		w = avg
	}
	return &Model{W: w[:d], B: w[d]}, nil
}

// Score returns the signed margin w·x + b; larger means more likely +1.
func (m *Model) Score(x mathx.Vec) float64 {
	return mathx.Dot(m.W, x) + m.B
}

// ScoreBatch scores the len(out) vectors stored row-major in xs (row i is
// xs[i*d:(i+1)*d]) into out: one flat sweep over the buffer that reuses W
// from cache line to cache line instead of re-dispatching through the Scorer
// interface per row. Each row's dot product accumulates in the same index
// order as Score, so batch and scalar results are bit-identical (the
// invariant core.PP's batch path relies on). It implements
// core.Scorer.
func (m *Model) ScoreBatch(xs []float64, d int, out []float64) {
	w := m.W
	for i := range out {
		out[i] = mathx.Dot(w, xs[i*d:(i+1)*d]) + m.B
	}
}

// Name identifies the classifier family.
func (m *Model) Name() string { return "SVM" }

// Cost returns the virtual per-blob scoring cost in virtual milliseconds:
// a fixed dispatch overhead plus O(d) work (Table 2). The constants put an
// FH+SVM PP near the ~1 ms/row the paper measures (Table 5).
func (m *Model) Cost() float64 { return 0.5 + 1e-3*float64(len(m.W)) }
