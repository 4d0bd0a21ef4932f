package mathx

import "testing"

// TestAVX2SweepSelected: where the CPU and the OS support AVX2, Sweep,
// MomentumStep and Axpy run the assembly kernels, so
// TestSweepKernelsBitIdentical compares two kernels and not one with itself.
func TestAVX2SweepSelected(t *testing.T) {
	if useAVX2 != HasAVX2() {
		t.Fatalf("HasAVX2 = %v, but the AVX2 sweep kernels selected = %v", HasAVX2(), useAVX2)
	}
	t.Logf("AVX2 sweep kernels in use: %v", useAVX2)
}
