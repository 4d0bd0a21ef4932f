package mathx

import "fmt"

// Sweep adds the terms d[k]·x_k to y in the order given, where x_k is row
// rows[k] of the row-major matrix x, whose rows are as long as y:
//
//	y[j] = y[j] + d[0]·x[rows[0]·n+j] + d[1]·x[rows[1]·n+j] + …,  n = len(y)
//
// summed left to right, every product and every sum rounded on its own (no
// fused multiply-add). Each element gets that sequence whatever the element
// next to it gets, so the AVX2 kernel (sweep_amd64.s), which holds a block of
// y in registers across all the terms, and the portable sweepGo compute the
// same bits. It panics unless len(d) == len(rows) and every row is inside x.
func Sweep(y, d, x []float64, rows []int) {
	if len(d) != len(rows) {
		panic(fmt.Sprintf("mathx: Sweep has %d coefficients for %d rows", len(d), len(rows)))
	}
	if n := len(y); n > 0 && len(rows) > 0 {
		top := uint(0) // the largest row index; a negative one wraps above it
		for _, r := range rows {
			top = max(top, uint(r))
		}
		if top >= uint(len(x)/n) {
			panic(fmt.Sprintf("mathx: Sweep row %d outside a %d×%d matrix", int(top), len(x)/n, n))
		}
	}
	sweep(y, d, x, rows)
}

// MomentumStep applies one step of SGD with momentum and L2 weight decay to
// the weights w and their momentum vw, given the gradient sums g:
//
//	grad  = g[j]·scale + l2·w[j]
//	vw[j] = mu·vw[j] − lr·grad
//	w[j]  = w[j] + vw[j]
//
// every product and sum rounded on its own, element by element, in the AVX2
// kernel as in the portable stepGo. It panics unless vw and g are as long
// as w.
func MomentumStep(w, vw, g []float64, scale, l2, mu, lr float64) {
	if len(vw) != len(w) || len(g) != len(w) {
		panic(fmt.Sprintf("mathx: MomentumStep lengths %d (w), %d (vw), %d (g)", len(w), len(vw), len(g)))
	}
	step(w, vw, g, scale, l2, mu, lr)
}

// sweepGo is Sweep's portable kernel. It takes four terms per pass over y,
// so an element is loaded and stored once per four products; the
// conversions keep the compiler from fusing a product with its sum where
// the target has FMA.
func sweepGo(y, d, x []float64, rows []int) {
	n := len(y)
	k := 0
	for ; k+4 <= len(d); k += 4 {
		d0, d1, d2, d3 := d[k], d[k+1], d[k+2], d[k+3]
		x0, x1, x2, x3 := x[rows[k]*n:][:n], x[rows[k+1]*n:][:n], x[rows[k+2]*n:][:n], x[rows[k+3]*n:][:n]
		for j, v := range y {
			y[j] = v + float64(d0*x0[j]) + float64(d1*x1[j]) + float64(d2*x2[j]) + float64(d3*x3[j])
		}
	}
	for ; k < len(d); k++ {
		dk, xk := d[k], x[rows[k]*n:][:n]
		for j, v := range y {
			y[j] = v + float64(dk*xk[j])
		}
	}
}

// stepGo is MomentumStep's portable kernel, unfused like sweepGo.
func stepGo(w, vw, g []float64, scale, l2, mu, lr float64) {
	vw, g = vw[:len(w)], g[:len(w)]
	for j, wj := range w {
		grad := float64(g[j]*scale) + float64(l2*wj)
		v := float64(mu*vw[j]) - float64(lr*grad)
		vw[j] = v
		w[j] = wj + v
	}
}
