package knn

import (
	"reflect"
	"testing"
)

// TestAVX2KernelSelected: where the CPU and the OS support AVX2, the package
// runs the assembly kernel, so TestKernelsBitIdentical compares two kernels
// and not one with itself.
func TestAVX2KernelSelected(t *testing.T) {
	active := reflect.ValueOf(sqDists).Pointer()
	if want := reflect.ValueOf(sqDistsAVX2).Pointer(); hasAVX2() != (active == want) {
		t.Fatalf("hasAVX2 = %v, but the AVX2 kernel selected = %v", hasAVX2(), active == want)
	}
	t.Logf("AVX2 kernel in use: %v", hasAVX2())
}
