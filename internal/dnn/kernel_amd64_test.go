package dnn

import (
	"reflect"
	"testing"

	"probpred/internal/mathx"
)

// TestAVX2KernelSelected: where the CPU and the OS support AVX2, the package
// runs the assembly kernel, so TestKernelsBitIdentical compares two kernels
// and not one with itself.
func TestAVX2KernelSelected(t *testing.T) {
	active := reflect.ValueOf(affine).Pointer()
	if want := reflect.ValueOf(affineAVX2).Pointer(); mathx.HasAVX2() != (active == want) {
		t.Fatalf("HasAVX2 = %v, but the AVX2 kernel selected = %v", mathx.HasAVX2(), active == want)
	}
	t.Logf("AVX2 kernel in use: %v", mathx.HasAVX2())
}
