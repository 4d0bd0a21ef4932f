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

// tile is the number of rows a forward pass runs at once, neuron-major: value
// j of row r at t[j*tile+r], as mathx.Affine takes them.
const tile = mathx.AffineRows

// putRow writes x into lane r of the neuron-major tile t.
func putRow(t []float64, r int, x []float64) {
	for j, v := range x {
		t[j*tile+r] = v
	}
}

// getRow reads lane r of the neuron-major tile t into dst.
func getRow(dst, t []float64, r int) {
	for j := range dst {
		dst[j] = t[j*tile+r]
	}
}

// clearRows zeroes lanes from…tile−1 of the neuron-major tile t.
func clearRows(t []float64, from int) {
	for j := 0; j < len(t); j += tile {
		clear(t[j+from : j+tile])
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

// fwdScratch holds two ping-pong activation tiles, each as wide as the
// widest layer's input or output.
type fwdScratch struct{ a, b []float64 }

// getScratch returns reusable activation tiles, allocating only on pool
// misses.
func (m *Model) getScratch() *fwdScratch {
	if s, ok := m.scratch.Get().(*fwdScratch); ok {
		return s
	}
	w := 0
	for _, l := range m.layers {
		w = max(w, l.in, l.out)
	}
	return &fwdScratch{a: make([]float64, w*tile), b: make([]float64, w*tile)}
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
		// The conversion keeps targets with FMA from fusing the decay.
		lr := cfg.LearningRate / (1 + float64(0.05*float64(epoch)))
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
// pre-activations, deltas and inputs (batch × out, batch × out and batch ×
// in, row-major), one gradient row, two forward tiles, and one list of
// nonzero terms for mathx.Sweep (coefficients and row indices).
type trainer struct {
	m          *Model
	pre, delta [][]float64
	// in[i] row s is layer i's input for the batch's sample s: a copy of the
	// training row for layer 0, the ReLU'd activations below it otherwise.
	in    [][]float64
	grad  []float64
	fwd   fwdScratch
	coefs []float64
	rows  []int
}

func newTrainer(m *Model, batch int) *trainer {
	t := &trainer{
		m:     m,
		pre:   make([][]float64, len(m.layers)),
		delta: make([][]float64, len(m.layers)),
		in:    make([][]float64, len(m.layers)),
	}
	widest := batch
	for i, l := range m.layers {
		t.pre[i] = make([]float64, batch*l.out)
		t.delta[i] = make([]float64, batch*l.out)
		t.in[i] = make([]float64, batch*l.in)
		widest = max(widest, l.in, l.out)
	}
	buf := make([]float64, widest*(2+2*tile))
	t.grad = buf[:widest]
	t.coefs = buf[widest : 2*widest]
	t.fwd = fwdScratch{a: buf[2*widest : widest*(2+tile)], b: buf[widest*(2+tile):]}
	t.rows = make([]int, widest)
	return t
}

// step performs one mini-batch SGD update with momentum.
//
// Every weight gets the same IEEE operations in the same order as the
// per-sample loop it replaced (kept as the reference in ref_test.go): each
// forward value is the affine kernel's, which no other row of the tile
// changes, each sample's deltas are Σ_o δ_o·W[o,:] over outputs in
// ascending order, each gradient row is Σ_s δ_s·a_s over the batch in
// sample order, and both sums start from +0. What changes is the schedule.
// The batch's forward passes run first, a tile of samples at a time, which
// is exact because weights change only in update; they leave each sample's
// pre-activations and activations as rows of the batch matrices. The
// backward pass then goes a layer at a time, every sample's deltas before
// the layer below's, which is exact for the same reason. Both sums are
// mathx.Sweep calls over the terms whose δ is nonzero, and each weight row's
// L2, momentum and step is one mathx.MomentumStep; both kernels are
// element-wise, so each weight keeps its operation sequence. On the
// benchmark's t=* PPs (32→128→64→1) ReLU zeroes 62 % of the first hidden
// layer's deltas and 74 % of the second's.
//
// The skip is exact while inputs and weights are finite. A skipped term 0·x
// is then ±0, an accumulator that starts at +0 never becomes −0 under
// round-to-nearest (a sum is −0 only when both addends are), and adding ±0
// to anything but −0 changes nothing. Where an x is ±Inf or NaN, 0·x is NaN:
// the reference's weights turn NaN there and these do not.
func (t *trainer) step(xs []mathx.Vec, ys []bool, batch []int, lr float64, cfg Config) {
	layers := t.m.layers
	last := len(layers) - 1
	for lo := 0; lo < len(batch); lo += tile {
		rows := min(tile, len(batch)-lo)
		cur, alt := t.fwd.a, t.fwd.b
		n := layers[0].in
		x := cur[:n*tile]
		for r, idx := range batch[lo : lo+rows] {
			copy(t.in[0][(lo+r)*n:(lo+r+1)*n], xs[idx])
			putRow(x, r, xs[idx])
		}
		clearRows(x, rows)
		for i, l := range layers {
			z := alt[:l.out*tile]
			mathx.Affine(l.w, l.b, cur[:l.in*tile], z)
			for r := range rows {
				getRow(t.pre[i][(lo+r)*l.out:(lo+r+1)*l.out], z, r)
			}
			if i == last {
				break
			}
			// The reference's ReLU, v > 0 ? v : 0 (NaN and −0 become +0),
			// as a mask: the compiler makes the select a CMOV, not a branch
			// mispredicted on half the values.
			for j, v := range z {
				var keep uint64
				if v > 0 {
					keep = math.MaxUint64
				}
				z[j] = math.Float64frombits(math.Float64bits(v) & keep)
			}
			for r := range rows {
				getRow(t.in[i+1][(lo+r)*l.out:(lo+r+1)*l.out], z, r)
			}
			cur, alt = alt, cur
		}
	}
	for s, idx := range batch {
		target, weight := 0.0, 1.0
		if ys[idx] {
			target = 1.0
			weight = cfg.ClassWeightPos
		}
		// dL/dlogit for the logistic loss.
		t.delta[last][s] = weight * (mathx.Sigmoid(t.pre[last][s]) - target)
	}
	// Backward pass: the deltas of every layer below the last.
	for i := last; i > 0; i-- {
		l := layers[i]
		prev := t.delta[i-1][:len(batch)*l.in]
		t.backward(l, t.delta[i][:len(batch)*l.out], prev)
		// ReLU derivative of the layer below's pre-activation, as a mask
		// like the forward ReLU: z ≤ 0 zeroes the delta, NaN keeps it.
		for j, z := range t.pre[i-1][:len(prev)] {
			keep := uint64(math.MaxUint64)
			if z <= 0 {
				keep = 0
			}
			prev[j] = math.Float64frombits(math.Float64bits(prev[j]) & keep)
		}
	}
	scale := 1 / float64(len(batch))
	for i, l := range layers {
		t.update(l, t.delta[i][:len(batch)*l.out], t.in[i][:len(batch)*l.in], lr, scale, cfg)
	}
}

// nonzero is 1 unless v is ±0 (NaN counts as nonzero), without a branch: the
// gathers below would otherwise mispredict on about every other δ.
func nonzero(v float64) int {
	b := math.Float64bits(v) << 1
	return int((b | -b) >> 63)
}

// backward sets each sample s's prev row to Σ_o d_s[o]·W[o,:], over o
// ascending, for the samples whose deltas are the rows of delta (batch ×
// out) and prev (batch × in).
func (t *trainer) backward(l *layer, delta, prev []float64) {
	n := l.in
	for s := range len(prev) / n {
		coefs, rows, k := t.coefs[:l.out], t.rows[:l.out], 0
		for o, v := range delta[s*l.out : (s+1)*l.out] {
			coefs[k], rows[k] = v, o
			k += nonzero(v)
		}
		p := prev[s*n : (s+1)*n]
		clear(p)
		mathx.Sweep(p, coefs[:k], l.w, rows[:k])
	}
}

// update applies one SGD-with-momentum step to layer l. delta holds the
// batch's deltas (sample × output) and in the inputs the layer saw (sample
// × input).
func (t *trainer) update(l *layer, delta, in []float64, lr, scale float64, cfg Config) {
	n, batch := l.in, len(delta)/l.out
	g := t.grad[:n]
	for o := range l.out {
		gb := 0.0
		coefs, rows, k := t.coefs[:batch], t.rows[:batch], 0
		for s := range batch {
			v := delta[s*l.out+o]
			gb += v
			coefs[k], rows[k] = v, s
			k += nonzero(v)
		}
		clear(g)
		mathx.Sweep(g, coefs[:k], in, rows[:k])
		mathx.MomentumStep(l.w[o*n:(o+1)*n], l.vw[o*n:(o+1)*n], g, scale, cfg.L2, cfg.Momentum, lr)
		l.vb[o] = float64(cfg.Momentum*l.vb[o]) - float64(lr*gb*scale)
		l.b[o] += l.vb[o]
	}
}

// Score returns the output logit; larger means more likely +1. It runs one
// tile with x as its only row.
func (m *Model) Score(x mathx.Vec) float64 {
	var out [1]float64
	m.ScoreBatch(x, len(x), out[:])
	return out[0]
}

// ScoreBatch scores the len(out) vectors stored row-major in xs (row i is
// xs[i*d:(i+1)*d]) into out. Rows go through the network a tile of eight at
// a time, the last tile padded with zero rows; the affine kernel gives each
// row the operations it would get alone, so batch and scalar logits are
// bit-identical (the invariant core.PP's batch path relies on). It
// implements core.Scorer.
func (m *Model) ScoreBatch(xs []float64, d int, out []float64) {
	if n := m.layers[0].in; d != n {
		panic(fmt.Sprintf("dnn: layer takes %d inputs, got %d", n, d))
	}
	s := m.getScratch()
	x := s.a[:d*tile]
	for lo := 0; lo < len(out); lo += tile {
		rows := min(tile, len(out)-lo)
		for r := range rows {
			putRow(x, r, xs[(lo+r)*d:(lo+r+1)*d])
		}
		clearRows(x, rows)
		copy(out[lo:lo+rows], m.forward(s))
	}
	m.scratch.Put(s)
}

// forward runs the tile in s.a through the network, ReLU between layers,
// and returns the tile of logits. The ReLU is the branch-free max(v, 0),
// which keeps NaN; it turns −0 into +0, which no later sum can tell apart,
// since each starts at +0 and a sum is −0 only when both addends are.
func (m *Model) forward(s *fwdScratch) []float64 {
	cur, alt := s.a, s.b
	for i, l := range m.layers {
		z := alt[:l.out*tile]
		mathx.Affine(l.w, l.b, cur[:l.in*tile], z)
		if i == len(m.layers)-1 {
			return z
		}
		for j, v := range z {
			z[j] = max(v, 0)
		}
		cur, alt = alt, cur
	}
	return nil // unreachable for a well-formed model
}

// Name identifies the classifier family.
func (m *Model) Name() string { return "DNN" }

// Params returns the number of trainable parameters (d_m in Table 2).
func (m *Model) Params() int { return m.params }

// Cost returns the virtual per-blob scoring cost in virtual milliseconds:
// one forward pass touches every parameter once (c_f in Table 2). The
// constants put a typical PP network near the ~10 ms/row the paper measures
// for DNN PPs (Table 5).
func (m *Model) Cost() float64 { return 2.0 + float64(5e-4*float64(m.params)) }
