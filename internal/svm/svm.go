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
// mismatched input, rows of differing length or single-class labels.
func Train(xs []mathx.Vec, ys []bool, cfg Config) (*Model, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("svm: empty training set")
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("svm: %d examples but %d labels", len(xs), len(ys))
	}
	n, d := len(xs), len(xs[0])
	for i, x := range xs {
		if len(x) != d {
			return nil, fmt.Errorf("svm: example %d has %d features, example 0 has %d", i, len(x), d)
		}
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
	// Every example is augmented with a constant 1 so the bias, w[d], is
	// learned and regularized together with the weights; an unregularized
	// bias receives an enormous kick on the first Pegasos step (eta =
	// 1/lambda) and never recovers. The step passes apply the constant
	// themselves, so the rows are read in place.
	w := make(mathx.Vec, d+1)
	rng := mathx.NewRNG(cfg.Seed)
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
	// Each step is one pass over the weights (DESIGN.md "Dense kernels
	// (`mathx`)"): it applies the step's shrink, hinge update and averaging
	// and accumulates the next step's margin w·x, so the next example is
	// drawn before the pass. m is that dot product, summed as Dot sums it.
	i := rng.Intn(n)
	m := mathx.Dot(w[:d], xs[i]) + w[d]
	for step := 1; step <= totalSteps; step++ {
		y, weight := -1.0, 1.0
		if ys[i] {
			y, weight = 1.0, cfg.ClassWeightPos
		}
		eta := 1 / (cfg.Lambda * float64(t))
		shrink := 1 - float64(eta*cfg.Lambda)
		hinge := y*m < 1
		next := i
		if step < totalSteps {
			next = rng.Intn(n)
		}
		switch averaging := step > avgFrom; {
		case hinge && averaging:
			m = hingeAvgPass(w, avg, xs[i], xs[next], shrink, float64(eta*y)*weight)
		case hinge:
			m = hingePass(w, xs[i], xs[next], shrink, float64(eta*y)*weight)
		case averaging:
			m = shrinkAvgPass(w, avg, xs[next], shrink)
		default:
			m = shrinkPass(w, xs[next], shrink)
		}
		i = next
		t++
	}
	if avgCount := totalSteps - avgFrom; avgCount > 0 {
		mathx.Scale(1/float64(avgCount), avg)
		w = avg
	}
	return &Model{W: w[:d], B: w[d]}, nil
}

// The four step passes below each update the d+1 weights w of one Pegasos
// step and return Σ w[j]·xn[j], the next example's dot product, over the
// updated weights, where x and xn are d long and the bias w[d] takes the
// constant 1 as its feature. Each weight gets the shrink w·c, then the
// hinge update + a·x[j] when the margin was under 1, then avg[j] += w[j]
// once averaging has begun: the operations of a Scale, an Axpy and an
// Axpy(1, w, avg), in that order. Products are written float64(a*b) so no
// target fuses them into the following add; a product with the constant 1
// is exact and left out. The passes are not inlined: inside Train's loop a
// pass spilled its index and a base pointer to the stack every element.

// hingeAvgPass is a step with a hinge update during averaging.
//
//go:noinline
func hingeAvgPass(w, avg, x, xn mathx.Vec, c, a float64) float64 {
	d := len(x)
	ws, as, xn := w[:d], avg[:d], xn[:d]
	m := 0.0
	for j, xj := range x {
		v := float64(ws[j]*c) + float64(a*xj)
		ws[j] = v
		as[j] += v
		m += float64(v * xn[j])
	}
	v := float64(w[d]*c) + a
	w[d] = v
	avg[d] += v
	return m + v
}

// hingePass is a step with a hinge update before averaging.
//
//go:noinline
func hingePass(w, x, xn mathx.Vec, c, a float64) float64 {
	d := len(x)
	ws, xn := w[:d], xn[:d]
	m := 0.0
	for j, xj := range x {
		v := float64(ws[j]*c) + float64(a*xj)
		ws[j] = v
		m += float64(v * xn[j])
	}
	v := float64(w[d]*c) + a
	w[d] = v
	return m + v
}

// shrinkAvgPass is a step without a hinge update during averaging.
//
//go:noinline
func shrinkAvgPass(w, avg, xn mathx.Vec, c float64) float64 {
	d := len(xn)
	ws, as := w[:d], avg[:d]
	m := 0.0
	for j, xj := range xn {
		v := float64(ws[j] * c)
		ws[j] = v
		as[j] += v
		m += float64(v * xj)
	}
	v := float64(w[d] * c)
	w[d] = v
	avg[d] += v
	return m + v
}

// shrinkPass is a step without a hinge update before averaging.
//
//go:noinline
func shrinkPass(w, xn mathx.Vec, c float64) float64 {
	d := len(xn)
	ws := w[:d]
	m := 0.0
	for j, xj := range xn {
		v := float64(ws[j] * c)
		ws[j] = v
		m += float64(v * xj)
	}
	v := float64(w[d] * c)
	w[d] = v
	return m + v
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
func (m *Model) Cost() float64 { return 0.5 + float64(1e-3*float64(len(m.W))) }
