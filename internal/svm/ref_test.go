package svm

import "probpred/internal/mathx"

// This file keeps the Pegasos loop that Train's one-pass step replaced, as
// the oracle TestTrainMatchesReference holds every trained weight and the
// bias to, bit for bit. Each step is a Dot, a Scale, up to two Axpy calls
// and an Intn, as before; the loop is the original but for the conversion
// in the shrink factor, which stops a target with FMA from fusing the
// product with the subtraction. Train's input checks are left out: the
// test calls trainRef only on input Train accepted.

// trainRef is Train with the reference step.
func trainRef(xs []mathx.Vec, ys []bool, cfg Config) *Model {
	cfg.fill()
	d := len(xs[0])
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
		t = int(1/cfg.Lambda) + 2
	}
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
			mathx.Scale(1-float64(eta*cfg.Lambda), w)
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
	return &Model{W: w[:d], B: w[d]}
}
