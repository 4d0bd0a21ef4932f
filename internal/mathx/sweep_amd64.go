package mathx

// useAVX2 selects the assembly kernels of Sweep and MomentumStep, once. The
// choice is a branch, not a function value, so the compiler still sees that
// the kernels keep no pointer to their arguments and Axpy's one-term lists
// stay on the stack.
var useAVX2 = HasAVX2()

func sweep(y, d, x []float64, rows []int) {
	if useAVX2 {
		sweepAVX2(y, d, x, rows)
		return
	}
	sweepGo(y, d, x, rows)
}

func step(w, vw, g []float64, scale, l2, mu, lr float64) {
	if useAVX2 {
		stepAVX2(w, vw, g, scale, l2, mu, lr)
		return
	}
	stepGo(w, vw, g, scale, l2, mu, lr)
}

//go:noescape
func sweepAVX2(y, d, x []float64, rows []int)

//go:noescape
func stepAVX2(w, vw, g []float64, scale, l2, mu, lr float64)
