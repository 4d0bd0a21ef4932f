//go:build !amd64

package mathx

// useAVX2 is false off amd64: every kernel is the portable one.
const useAVX2 = false

func sweep(y, d, x []float64, rows []int) { sweepGo(y, d, x, rows) }

func step(w, vw, g []float64, scale, l2, mu, lr float64) { stepGo(w, vw, g, scale, l2, mu, lr) }

func affine(w, b, in, out []float64) { affineGo(w, b, in, out) }

func sqDists(q, blk []float64, bound float64, out *[DistLanes]float64) uint32 {
	return sqDistsGo(q, blk, bound, out)
}
