package knn

import (
	"fmt"
	"math"
	"testing"

	"probpred/internal/mathx"
)

type kernel struct {
	name string
	fn   func(q, blk []float64, bound float64, out *[lanes]float64) uint32
}

// kernels lists the kernel the package runs and the portable one; on a
// host without AVX2 they are the same function.
func kernels() []kernel {
	return []kernel{{"active", sqDists}, {"go", sqDistsGo}}
}

// useKernel makes fn the package's kernel and returns the undo.
func useKernel(fn func(q, blk []float64, bound float64, out *[lanes]float64) uint32) func() {
	old := sqDists
	sqDists = fn
	return func() { sqDists = old }
}

// TestKernelsBitIdentical holds the kernel the package runs (the AVX2 one
// where the CPU has it) to the portable kernel and to mathx.SqDist, bit for
// bit by math.Float64bits, lane by lane, with the same below-bound lanes; and
// whole queries run on either kernel to the same neighbour lists. Shapes:
// d = 1…17, n on both sides of a block edge and at the KDE PPs' sizes, grid
// coordinates (many exact ties), identical points, and k ≥ n.
func TestKernelsBitIdentical(t *testing.T) {
	rng := mathx.NewRNG(11)
	var outA, outG [lanes]float64
	var sa, sg Scratch
	for dim := 1; dim <= 17; dim++ {
		for _, n := range []int{1, 15, 16, 17, 300, 2000} {
			for _, shape := range []string{"uniform", "grid", "identical"} {
				name := fmt.Sprintf("d=%d/n=%d/%s", dim, n, shape)
				pts := pointSet(shape, n, dim, rng)
				x := Build(pts)
				for trial := 0; trial < 4; trial++ {
					q := make(mathx.Vec, dim)
					for j := range q {
						q[j] = rng.NormFloat64() * 4
					}
					if trial == 0 {
						copy(q, pts[rng.Intn(n)])
					}
					for b := 0; b*lanes < n; b++ {
						blk := x.blocks[b*lanes*dim : (b+1)*lanes*dim]
						bound := rng.Float64() * 4 * float64(dim)
						if trial == 1 { // a bound equal to a lane's distance
							bound = mathx.SqDist(q, pts[b*lanes])
						}
						ma := sqDists(q, blk, bound, &outA)
						mg := sqDistsGo(q, blk, bound, &outG)
						if ma != mg {
							t.Fatalf("%s block %d: below-bound lanes %016b, portable kernel %016b", name, b, ma, mg)
						}
						for l := 0; l < lanes && b*lanes+l < n; l++ {
							want := math.Float64bits(mathx.SqDist(q, pts[b*lanes+l]))
							if a, g := math.Float64bits(outA[l]), math.Float64bits(outG[l]); a != want || g != want {
								t.Fatalf("%s point %d: kernel %#x, portable %#x, mathx.SqDist %#x", name, b*lanes+l, a, g, want)
							}
						}
					}
					for _, k := range []int{1, 25, n, n + 3} {
						got := append([]Result(nil), x.KNNInto(q, k, &sa)...)
						undo := useKernel(sqDistsGo)
						want := x.KNNInto(q, k, &sg)
						undo()
						if !sameResults(got, want) {
							t.Fatalf("%s k=%d: KNN %v, on the portable kernel %v", name, k, got, want)
						}
					}
				}
			}
		}
	}
}
