package dnn

import "probpred/internal/mathx"

// This file keeps the per-sample training loop that Train's batched step
// replaced as the oracle TestTrainMatchesReference holds every trained
// weight and bias to, bit for bit, and a forward pass that takes one row at
// a time, the oracle of TestScoreBatchMatchesReference. The loop is the original
// but for its conversions, which stop a target with FMA from fusing a
// product with its sum, and its axpy, which is a plain loop rather than the
// mathx kernel Train runs.

// trainRef is Train with the reference step.
func trainRef(xs []mathx.Vec, ys []bool, cfg Config) (*Model, error) {
	m, rng, err := newModel(xs, ys, &cfg)
	if err != nil {
		return nil, err
	}
	n := len(xs)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.ShuffleInts(order)
		lr := cfg.LearningRate / (1 + float64(0.05*float64(epoch)))
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
				axpy(d, in, row)
			}
			if i == 0 {
				break
			}
			prev := make(mathx.Vec, l.in)
			for o := 0; o < l.out; o++ {
				d := delta[o]
				row := l.w[o*l.in : (o+1)*l.in]
				axpy(d, row, prev)
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
			grad := float64(g.w[j]*scale) + float64(cfg.L2*l.w[j])
			l.vw[j] = float64(cfg.Momentum*l.vw[j]) - float64(lr*grad)
			l.w[j] += l.vw[j]
		}
		for j := range l.b {
			l.vb[j] = float64(cfg.Momentum*l.vb[j]) - float64(lr*g.b[j]*scale)
			l.b[j] += l.vb[j]
		}
	}
}

// axpy is y += alpha·x, one rounded product and one rounded sum per element.
func axpy(alpha float64, x, y mathx.Vec) {
	for j, v := range x {
		y[j] += float64(alpha * v)
	}
}

// forward is the per-row reference of one layer: out[o] = Σ_j w[o][j]·in[j]
// + b[o], the sum starting from +0 and taken in ascending j, each product and
// each sum rounded.
func (l *layer) forward(in mathx.Vec) mathx.Vec {
	out := make(mathx.Vec, l.out)
	for o := range out {
		s := 0.0
		for j, x := range in {
			s += float64(l.w[o*l.in+j] * x)
		}
		out[o] = s + l.b[o]
	}
	return out
}

// scoreRef is Score one row at a time, through the per-row reference layers.
func (m *Model) scoreRef(x mathx.Vec) float64 {
	for i, l := range m.layers {
		x = l.forward(x)
		if i == len(m.layers)-1 {
			break
		}
		for j, v := range x {
			if v < 0 {
				x[j] = 0
			}
		}
	}
	return x[0]
}
