// Package dnn implements the deep-neural-network PP classifier of §5.3: a
// fully connected feed-forward network f_fcn with ReLU activations between
// layers and a single logit output, trained with mini-batch stochastic
// gradient descent with momentum on the logistic loss.
//
// Compared to the reference DNNs the paper bypasses, PP networks are
// deliberately light-weight (the paper's is 8 conv layers + 1 FC; ours is a
// small MLP because the synthetic blobs are already vectors).
package dnn

import (
	"fmt"
	"math"
	"sync"

	"probpred/internal/mathx"
)

// Config controls network shape and training.
type Config struct {
	// Hidden lists hidden-layer widths, e.g. {32, 16}. Empty selects {32}.
	Hidden []int
	// Epochs is the number of passes over the data. Zero selects 30.
	Epochs int
	// BatchSize is the mini-batch size. Zero selects 16.
	BatchSize int
	// LearningRate is the SGD step size. Zero selects 0.05.
	LearningRate float64
	// Momentum is the classical momentum coefficient. Zero selects 0.9.
	Momentum float64
	// L2 is the weight-decay coefficient. Zero selects 1e-4.
	L2 float64
	// ClassWeightPos up-weights positive examples in the loss. Zero selects
	// the inverse class frequency ratio, capped at 10.
	ClassWeightPos float64
	// Seed seeds initialization and batch shuffling.
	Seed uint64
}

func (c *Config) fill(posFrac float64) {
	if len(c.Hidden) == 0 {
		c.Hidden = []int{32}
	}
	if c.Epochs == 0 {
		c.Epochs = 30
	}
	if c.BatchSize == 0 {
		c.BatchSize = 16
	}
	if c.LearningRate == 0 {
		c.LearningRate = 0.05
	}
	if c.Momentum == 0 {
		c.Momentum = 0.9
	}
	if c.L2 == 0 {
		c.L2 = 1e-4
	}
	if c.ClassWeightPos == 0 {
		w := 1.0
		if posFrac > 0 && posFrac < 1 {
			w = (1 - posFrac) / posFrac
		}
		c.ClassWeightPos = mathx.Clamp(w, 1, 10)
	}
}

// layer holds the weights of one fully connected layer: out = W·in + b.
type layer struct {
	in, out int
	w       []float64 // out×in row-major
	b       []float64 // out
	// momentum buffers
	vw []float64
	vb []float64
}

func newLayer(in, out int, rng *mathx.RNG) *layer {
	l := &layer{
		in: in, out: out,
		w:  make([]float64, in*out),
		b:  make([]float64, out),
		vw: make([]float64, in*out),
		vb: make([]float64, out),
	}
	// He initialization, appropriate for ReLU.
	scale := math.Sqrt(2 / float64(in))
	for i := range l.w {
		l.w[i] = rng.NormFloat64() * scale
	}
	return l
}

func (l *layer) forward(in mathx.Vec) mathx.Vec {
	out := make(mathx.Vec, l.out)
	l.forwardInto(in, out)
	return out
}

// forwardInto computes out = W·in + b into the caller's buffer. It is the
// network's one forward kernel: training, Score and ScoreBatch all call it
// once per input row. Output neurons are taken four at a time, so each input
// value is loaded once for four multiply-adds and the four accumulators'
// add chains overlap instead of serializing on one. Every accumulator still
// sums its neuron's products in index order, as mathx.Dot does, so the
// result does not depend on the blocking.
func (l *layer) forwardInto(in, out mathx.Vec) {
	n := l.in
	if len(in) != n {
		panic(fmt.Sprintf("dnn: layer takes %d inputs, got %d", n, len(in)))
	}
	o := 0
	for ; o+4 <= l.out; o += 4 {
		w0 := l.w[o*n : (o+1)*n : (o+1)*n]
		w1 := l.w[(o+1)*n : (o+2)*n : (o+2)*n]
		w2 := l.w[(o+2)*n : (o+3)*n : (o+3)*n]
		w3 := l.w[(o+3)*n : (o+4)*n : (o+4)*n]
		var s0, s1, s2, s3 float64
		for j, x := range in {
			s0 += w0[j] * x
			s1 += w1[j] * x
			s2 += w2[j] * x
			s3 += w3[j] * x
		}
		out[o] = s0 + l.b[o]
		out[o+1] = s1 + l.b[o+1]
		out[o+2] = s2 + l.b[o+2]
		out[o+3] = s3 + l.b[o+3]
	}
	for ; o < l.out; o++ {
		out[o] = mathx.Dot(l.w[o*n:(o+1)*n], in) + l.b[o]
	}
}

// Model is a trained network. Layers alternate affine transform and ReLU;
// the final layer has a single linear (logit) output.
type Model struct {
	layers []*layer
	params int
	// scratch recycles forward-pass activation buffers across Score and
	// ScoreBatch calls. Scoring must be safe for concurrent use (concurrent
	// sessions share one Model), so buffers are pooled; the zero pool is
	// valid, which keeps gob-decoded models working without a constructor.
	scratch sync.Pool
}

// fwdScratch holds two ping-pong activation buffers, each as wide as the
// widest layer.
type fwdScratch struct{ a, b []float64 }

// getScratch returns reusable activation buffers, allocating only on pool
// misses.
func (m *Model) getScratch() *fwdScratch {
	if s, ok := m.scratch.Get().(*fwdScratch); ok {
		return s
	}
	w := 0
	for _, l := range m.layers {
		if l.out > w {
			w = l.out
		}
	}
	return &fwdScratch{a: make([]float64, w), b: make([]float64, w)}
}

// Train fits a network to feature vectors xs and binary labels ys.
func Train(xs []mathx.Vec, ys []bool, cfg Config) (*Model, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("dnn: empty training set")
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("dnn: %d examples but %d labels", len(xs), len(ys))
	}
	pos := 0
	for _, y := range ys {
		if y {
			pos++
		}
	}
	if pos == 0 || pos == len(ys) {
		return nil, fmt.Errorf("dnn: training set has a single class (%d/%d positive)", pos, len(ys))
	}
	cfg.fill(float64(pos) / float64(len(ys)))

	rng := mathx.NewRNG(cfg.Seed)
	dims := append([]int{len(xs[0])}, cfg.Hidden...)
	dims = append(dims, 1)
	m := &Model{}
	for i := 0; i+1 < len(dims); i++ {
		l := newLayer(dims[i], dims[i+1], rng)
		m.layers = append(m.layers, l)
		m.params += len(l.w) + len(l.b)
	}

	n := len(xs)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.ShuffleInts(order)
		lr := cfg.LearningRate / (1 + 0.05*float64(epoch))
		for start := 0; start < n; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			m.step(xs, ys, order[start:end], lr, cfg)
		}
	}
	return m, nil
}

// step performs one mini-batch SGD update with momentum.
func (m *Model) step(xs []mathx.Vec, ys []bool, batch []int, lr float64, cfg Config) {
	type grads struct {
		w []float64
		b []float64
	}
	gs := make([]grads, len(m.layers))
	for i, l := range m.layers {
		gs[i] = grads{w: make([]float64, len(l.w)), b: make([]float64, len(l.b))}
	}
	for _, idx := range batch {
		x := xs[idx]
		target, weight := 0.0, 1.0
		if ys[idx] {
			target = 1.0
			weight = cfg.ClassWeightPos
		}
		// Forward pass, caching pre- and post-activation vectors.
		acts := make([]mathx.Vec, len(m.layers)+1) // post-activation inputs
		pre := make([]mathx.Vec, len(m.layers))    // pre-activation outputs
		acts[0] = x
		for i, l := range m.layers {
			z := l.forward(acts[i])
			pre[i] = z
			if i == len(m.layers)-1 {
				acts[i+1] = z // linear output
				continue
			}
			a := make(mathx.Vec, len(z))
			for j, v := range z {
				if v > 0 {
					a[j] = v
				}
			}
			acts[i+1] = a
		}
		logit := acts[len(m.layers)][0]
		p := mathx.Sigmoid(logit)
		// dL/dlogit for the logistic loss.
		delta := mathx.Vec{weight * (p - target)}
		// Backward pass.
		for i := len(m.layers) - 1; i >= 0; i-- {
			l := m.layers[i]
			in := acts[i]
			g := gs[i]
			for o := 0; o < l.out; o++ {
				d := delta[o]
				g.b[o] += d
				row := g.w[o*l.in : (o+1)*l.in]
				mathx.Axpy(d, in, row)
			}
			if i == 0 {
				break
			}
			prev := make(mathx.Vec, l.in)
			for o := 0; o < l.out; o++ {
				d := delta[o]
				row := l.w[o*l.in : (o+1)*l.in]
				mathx.Axpy(d, row, prev)
			}
			// ReLU derivative of the previous layer's pre-activation.
			for j := range prev {
				if pre[i-1][j] <= 0 {
					prev[j] = 0
				}
			}
			delta = prev
		}
	}
	scale := 1 / float64(len(batch))
	for i, l := range m.layers {
		g := gs[i]
		for j := range l.w {
			grad := g.w[j]*scale + cfg.L2*l.w[j]
			l.vw[j] = cfg.Momentum*l.vw[j] - lr*grad
			l.w[j] += l.vw[j]
		}
		for j := range l.b {
			l.vb[j] = cfg.Momentum*l.vb[j] - lr*g.b[j]*scale
			l.b[j] += l.vb[j]
		}
	}
}

// Score returns the output logit; larger means more likely +1.
func (m *Model) Score(x mathx.Vec) float64 {
	s := m.getScratch()
	v := m.score(x, s)
	m.scratch.Put(s)
	return v
}

// score runs one forward pass through ping-pong activation buffers.
func (m *Model) score(x mathx.Vec, s *fwdScratch) float64 {
	in := x
	cur, alt := s.a, s.b
	for i, l := range m.layers {
		z := cur[:l.out]
		l.forwardInto(in, z)
		if i == len(m.layers)-1 {
			return z[0]
		}
		for j, v := range z {
			if v < 0 {
				z[j] = 0
			}
		}
		in = z
		cur, alt = alt, cur
	}
	return 0 // unreachable for a well-formed model
}

// ScoreBatch scores the len(out) vectors stored row-major in xs (row i is
// xs[i*d:(i+1)*d]) into out: score per row over one scratch held for the
// whole batch, so batch and scalar logits are bit-identical (the invariant
// core.PP's batch path relies on). Rows are not blocked through the
// layers: a PP network's weights stay cache-resident from one row to the
// next as it is. It implements core.Scorer.
func (m *Model) ScoreBatch(xs []float64, d int, out []float64) {
	s := m.getScratch()
	for i := range out {
		out[i] = m.score(xs[i*d:(i+1)*d], s)
	}
	m.scratch.Put(s)
}

// Name identifies the classifier family.
func (m *Model) Name() string { return "DNN" }

// Params returns the number of trainable parameters (d_m in Table 2).
func (m *Model) Params() int { return m.params }

// Cost returns the virtual per-blob scoring cost in virtual milliseconds:
// one forward pass touches every parameter once (c_f in Table 2). The
// constants put a typical PP network near the ~10 ms/row the paper measures
// for DNN PPs (Table 5).
func (m *Model) Cost() float64 { return 2.0 + 5e-4*float64(m.params) }
