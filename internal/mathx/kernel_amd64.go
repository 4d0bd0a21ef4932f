package mathx

// useAVX2 selects the assembly kernels, once. The choice is a branch, not a
// function value, so the compiler still sees that the kernels keep no
// pointer to their arguments and Axpy's one-term lists stay on the stack.
var useAVX2 = hasAVX2()

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers across context switches (OSXSAVE set and XCR0 enabling both
// the SSE and the AVX state).
func hasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&(osxsave|avx) != osxsave|avx || xgetbv0()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

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

func affine(w, b, in, out []float64) {
	if useAVX2 {
		affineAVX2(w, b, in, out)
		return
	}
	affineGo(w, b, in, out)
}

func sqDists(q, blk []float64, bound float64, out *[DistLanes]float64) uint32 {
	if useAVX2 {
		return sqDistsAVX2(q, blk, bound, out)
	}
	return sqDistsGo(q, blk, bound, out)
}

//go:noescape
func sweepAVX2(y, d, x []float64, rows []int)

//go:noescape
func stepAVX2(w, vw, g []float64, scale, l2, mu, lr float64)

//go:noescape
func affineAVX2(w, b, in, out []float64)

//go:noescape
func sqDistsAVX2(q, blk []float64, bound float64, out *[DistLanes]float64) uint32

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32
