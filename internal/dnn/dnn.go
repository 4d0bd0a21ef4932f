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

// Train fits a network to feature vectors xs and binary labels ys. It
// returns an error, and trains nothing, for an empty or single-class set, a
// label count that differs from the row count, rows of different lengths,
// a negative Epochs or BatchSize, or a hidden width below 1. It also fails,
// naming the epoch, when training diverges: after every epoch each weight
// and bias must be finite.
func Train(xs []mathx.Vec, ys []bool, cfg Config) (*Model, error) {
	m, rng, err := newModel(xs, ys, &cfg)
	if err != nil {
		return nil, err
	}
	n := len(xs)
	t := newTrainer(m, min(cfg.BatchSize, n))
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
			t.step(xs, ys, order[start:end], lr, cfg)
		}
		if i := m.nonFinite(); i >= 0 {
			return nil, fmt.Errorf("dnn: training diverged in epoch %d of %d: layer %d has a non-finite weight or bias (learning rate %g, batch size %d)",
				epoch+1, cfg.Epochs, i, cfg.LearningRate, cfg.BatchSize)
		}
	}
	return m, nil
}

// nonFinite returns the first layer holding a ±Inf or NaN weight or bias,
// or −1 when every parameter is finite.
func (m *Model) nonFinite() int {
	for i, l := range m.layers {
		for _, ps := range [2][]float64{l.w, l.b} {
			for _, v := range ps {
				if math.IsInf(v, 0) || math.IsNaN(v) {
					return i
				}
			}
		}
	}
	return -1
}

// newModel validates a training set, fills cfg's defaults and draws the
// initial weights; the returned generator goes on to shuffle the batches.
func newModel(xs []mathx.Vec, ys []bool, cfg *Config) (*Model, *mathx.RNG, error) {
	if len(xs) == 0 {
		return nil, nil, fmt.Errorf("dnn: empty training set")
	}
	if len(xs) != len(ys) {
		return nil, nil, fmt.Errorf("dnn: %d examples but %d labels", len(xs), len(ys))
	}
	for i, x := range xs {
		if len(x) != len(xs[0]) {
			return nil, nil, fmt.Errorf("dnn: example %d has %d features, example 0 has %d", i, len(x), len(xs[0]))
		}
	}
	if cfg.Epochs < 0 || cfg.BatchSize < 0 {
		return nil, nil, fmt.Errorf("dnn: negative Epochs (%d) or BatchSize (%d)", cfg.Epochs, cfg.BatchSize)
	}
	for _, w := range cfg.Hidden {
		if w < 1 {
			return nil, nil, fmt.Errorf("dnn: hidden layer width %d, want ≥ 1", w)
		}
	}
	pos := 0
	for _, y := range ys {
		if y {
			pos++
		}
	}
	if pos == 0 || pos == len(ys) {
		return nil, nil, fmt.Errorf("dnn: training set has a single class (%d/%d positive)", pos, len(ys))
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
	return m, rng, nil
}

// trainer is one Train call's scratch, allocated once: per layer the batch's
// pre-activations and deltas (batch × out, row-major), the rows each layer
// reads as input, one gradient row and one list of nonzero terms.
type trainer struct {
	m          *Model
	pre, delta [][]float64
	// in[i][s] is layer i's input for the batch's sample s: a training row
	// for layer 0, a row of the ReLU'd activations below it otherwise.
	in   [][]mathx.Vec
	grad []float64
	nz   []int
}

func newTrainer(m *Model, batch int) *trainer {
	t := &trainer{
		m:     m,
		pre:   make([][]float64, len(m.layers)),
		delta: make([][]float64, len(m.layers)),
		in:    make([][]mathx.Vec, len(m.layers)),
	}
	widest := batch
	for i, l := range m.layers {
		t.pre[i] = make([]float64, batch*l.out)
		t.delta[i] = make([]float64, batch*l.out)
		t.in[i] = make([]mathx.Vec, batch)
		if i > 0 {
			act := make([]float64, batch*l.in)
			for s := range t.in[i] {
				t.in[i][s] = act[s*l.in : (s+1)*l.in : (s+1)*l.in]
			}
		}
		widest = max(widest, l.in, l.out)
	}
	t.grad = make([]float64, widest)
	t.nz = make([]int, 0, widest)
	return t
}

// step performs one mini-batch SGD update with momentum.
//
// Every weight gets the same IEEE operations in the same order as the
// per-sample loop it replaced (kept as the reference in ref_test.go): each
// sample's deltas are Σ_o δ_o·W[o,:] over outputs in ascending order, each
// gradient row is Σ_s δ_s·a_s over the batch in sample order, and both sums
// start from +0. What changes is the schedule. Each sample's forward and
// backward pass leave its activations and deltas in the batch matrices;
// then each weight row sums its gradient over the batch and applies L2,
// momentum and the step in the same loop over outputs. Terms are taken four
// per pass, so an accumulator is loaded and stored once per four
// multiply-adds, and terms whose δ is zero are skipped: on the benchmark's
// t=* PPs (32→128→64→1) ReLU zeroes 62 % of the first hidden layer's deltas
// and 74 % of the second's.
//
// The skip is exact while inputs and weights are finite. A skipped term 0·x
// is then ±0, an accumulator that starts at +0 never becomes −0 under
// round-to-nearest (a sum is −0 only when both addends are), and adding ±0
// to anything but −0 changes nothing. Where an x is ±Inf or NaN, 0·x is NaN:
// the reference's weights turn NaN there and these do not.
func (t *trainer) step(xs []mathx.Vec, ys []bool, batch []int, lr float64, cfg Config) {
	layers := t.m.layers
	last := len(layers) - 1
	for s, idx := range batch {
		t.in[0][s] = xs[idx]
		// Forward pass, keeping pre-activations and ReLU'd inputs.
		for i, l := range layers {
			z := t.pre[i][s*l.out : (s+1)*l.out]
			l.forwardInto(t.in[i][s], z)
			if i == last {
				break
			}
			a := t.in[i+1][s]
			for j, v := range z {
				if v > 0 {
					a[j] = v
				} else {
					a[j] = 0
				}
			}
		}
		target, weight := 0.0, 1.0
		if ys[idx] {
			target = 1.0
			weight = cfg.ClassWeightPos
		}
		// dL/dlogit for the logistic loss.
		t.delta[last][s] = weight * (mathx.Sigmoid(t.pre[last][s]) - target)
		// Backward pass: the deltas of every layer below the last.
		for i := last; i > 0; i-- {
			l := layers[i]
			t.backward(l, t.delta[i][s*l.out:(s+1)*l.out], t.delta[i-1][s*l.in:(s+1)*l.in], t.pre[i-1][s*l.in:(s+1)*l.in])
		}
	}
	scale := 1 / float64(len(batch))
	for i, l := range layers {
		t.update(l, t.delta[i], t.in[i][:len(batch)], lr, scale, cfg)
	}
}

// backward sets prev = ReLU'(pre) ⊙ Σ_o d[o]·W[o,:], over o ascending.
func (t *trainer) backward(l *layer, d, prev, pre []float64) {
	n := l.in
	nz := t.nz[:0]
	for o, v := range d {
		if v != 0 {
			nz = append(nz, o)
		}
	}
	clear(prev)
	k := 0
	for ; k+4 <= len(nz); k += 4 {
		o0, o1, o2, o3 := nz[k], nz[k+1], nz[k+2], nz[k+3]
		d0, d1, d2, d3 := d[o0], d[o1], d[o2], d[o3]
		w0 := l.w[o0*n : (o0+1)*n : (o0+1)*n]
		w1 := l.w[o1*n : (o1+1)*n : (o1+1)*n]
		w2 := l.w[o2*n : (o2+1)*n : (o2+1)*n]
		w3 := l.w[o3*n : (o3+1)*n : (o3+1)*n]
		for j := range prev {
			prev[j] = prev[j] + d0*w0[j] + d1*w1[j] + d2*w2[j] + d3*w3[j]
		}
	}
	for ; k < len(nz); k++ {
		o := nz[k]
		mathx.Axpy(d[o], l.w[o*n:(o+1)*n], prev)
	}
	// ReLU derivative of the layer below's pre-activation.
	for j, z := range pre {
		if z <= 0 {
			prev[j] = 0
		}
	}
}

// update applies one SGD-with-momentum step to layer l. delta holds the
// batch's deltas (sample × output) and in the inputs the layer saw.
func (t *trainer) update(l *layer, delta []float64, in []mathx.Vec, lr, scale float64, cfg Config) {
	n := l.in
	g := t.grad[:n]
	for o := 0; o < l.out; o++ {
		gb := 0.0
		nz := t.nz[:0]
		for s := range in {
			v := delta[s*l.out+o]
			gb += v
			if v != 0 {
				nz = append(nz, s)
			}
		}
		clear(g)
		k := 0
		for ; k+4 <= len(nz); k += 4 {
			s0, s1, s2, s3 := nz[k], nz[k+1], nz[k+2], nz[k+3]
			d0, d1, d2, d3 := delta[s0*l.out+o], delta[s1*l.out+o], delta[s2*l.out+o], delta[s3*l.out+o]
			a0, a1, a2, a3 := in[s0][:n:n], in[s1][:n:n], in[s2][:n:n], in[s3][:n:n]
			for j := range g {
				g[j] = g[j] + d0*a0[j] + d1*a1[j] + d2*a2[j] + d3*a3[j]
			}
		}
		for ; k < len(nz); k++ {
			s := nz[k]
			mathx.Axpy(delta[s*l.out+o], in[s], g)
		}
		w := l.w[o*n : (o+1)*n : (o+1)*n]
		vw := l.vw[o*n : (o+1)*n : (o+1)*n]
		for j, gj := range g {
			grad := gj*scale + cfg.L2*w[j]
			vw[j] = cfg.Momentum*vw[j] - lr*grad
			w[j] += vw[j]
		}
		l.vb[o] = cfg.Momentum*l.vb[o] - lr*gb*scale
		l.b[o] += l.vb[o]
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
