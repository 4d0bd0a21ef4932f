//go:build !amd64

package mathx

func sweep(y, d, x []float64, rows []int) { sweepGo(y, d, x, rows) }

func step(w, vw, g []float64, scale, l2, mu, lr float64) { stepGo(w, vw, g, scale, l2, mu, lr) }
