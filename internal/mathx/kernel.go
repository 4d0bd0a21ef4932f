package mathx

import "fmt"

// The kernels below have an AVX2 twin in kernel_amd64.s, chosen once by
// useAVX2 where the CPU and the OS support it, and a portable Go one. Both
// compute the same bits: every product and every sum rounded on its own (no
// fused multiply-add), in the same order, lane by lane.

// Kernels names the kernel set every call below runs: "avx2" for the
// assembly, "go" for the portable one.
func Kernels() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// AffineRows is the number of rows one Affine call maps: two AVX2 registers
// of four float64 each per output.
const AffineRows = 8

// DistLanes is the number of points one SqDists call measures: four AVX2
// registers of four float64 each.
const DistLanes = 16

// Sweep adds the terms d[k]·x_k to y in the order given, where x_k is row
// rows[k] of the row-major matrix x, whose rows are as long as y:
//
//	y[j] = y[j] + d[0]·x[rows[0]·n+j] + d[1]·x[rows[1]·n+j] + …,  n = len(y)
//
// summed left to right, every product and every sum rounded on its own (no
// fused multiply-add). Each element gets that sequence whatever the element
// next to it gets, so the AVX2 kernel, which holds a block of y in
// registers across all the terms, and the portable sweepGo compute the same
// bits. It panics unless len(d) == len(rows) and every row is inside x.
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

// Affine computes one layer's out = W·in + b for a tile of AffineRows rows
// stored neuron-major: in[j·AffineRows+r] is input j of row r,
// out[o·AffineRows+r] is output o of row r, and w is the len(b)×n weight
// matrix, row-major, n = len(in)/AffineRows. SIMD lanes hold rows, so each
// lane runs one row's dot products exactly as a loop over that row alone
// would: output o starts from +0, adds w[o][j]·x[j] in ascending j, and then
// adds b[o]. It panics unless the four lengths agree.
func Affine(w, b, in, out []float64) {
	if n := len(in) / AffineRows; len(in) != n*AffineRows || len(out) != len(b)*AffineRows || len(w) != len(b)*n {
		panic(fmt.Sprintf("mathx: Affine cannot map a %d-value tile through %d weights and %d biases to a %d-value tile",
			len(in), len(w), len(b), len(out)))
	}
	affine(w, b, in, out)
}

// SqDists writes the squared distances from q to the DistLanes points of a
// dimension-major block (blk[j·DistLanes+l] is coordinate j of point l) into
// out, and returns the lanes whose distance is below bound as a bit set, bit
// l for lane l. Each lane sums (q_j − p_j)² in ascending j, exactly as SqDist
// does. It panics unless blk holds len(q) coordinates per point; the message
// names no lengths, which keeps SqDists small enough to inline into the k-NN
// scan's loop.
func SqDists(q, blk []float64, bound float64, out *[DistLanes]float64) uint32 {
	if len(blk) != len(q)*DistLanes {
		panic("mathx: SqDists block is not len(q) coordinates of DistLanes points")
	}
	return sqDists(q, blk, bound, out)
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

// affineGo is Affine's portable kernel, unfused like sweepGo.
func affineGo(w, b, in, out []float64) {
	n := len(in) / AffineRows
	for o, bias := range b {
		var s0, s1, s2, s3, s4, s5, s6, s7 float64
		for j, wj := range w[o*n : (o+1)*n] {
			x := (*[AffineRows]float64)(in[j*AffineRows : (j+1)*AffineRows])
			s0 += float64(wj * x[0])
			s1 += float64(wj * x[1])
			s2 += float64(wj * x[2])
			s3 += float64(wj * x[3])
			s4 += float64(wj * x[4])
			s5 += float64(wj * x[5])
			s6 += float64(wj * x[6])
			s7 += float64(wj * x[7])
		}
		*(*[AffineRows]float64)(out[o*AffineRows : (o+1)*AffineRows]) = [AffineRows]float64{
			s0 + bias, s1 + bias, s2 + bias, s3 + bias, s4 + bias, s5 + bias, s6 + bias, s7 + bias}
	}
}

// sqDistsGo is SqDists's portable kernel, unfused like sweepGo.
func sqDistsGo(q, blk []float64, bound float64, out *[DistLanes]float64) uint32 {
	*out = [DistLanes]float64{}
	for j, v := range q {
		p := (*[DistLanes]float64)(blk[j*DistLanes : (j+1)*DistLanes])
		for l := range out {
			d := v - p[l]
			out[l] += float64(d * d)
		}
	}
	var below uint32
	for l, s := range out {
		if s < bound {
			below |= 1 << l
		}
	}
	return below
}
