package knn_test

import (
	"testing"

	"probpred/internal/testkit"
)

// TestAVX2KernelSelected: where the CPU and the OS support AVX2, a query
// measures each block through mathx.SqDists's assembly kernel, so KNN takes
// the AVX2 path that mathx's kernel tests hold to the portable one bit for
// bit.
func TestAVX2KernelSelected(t *testing.T) {
	testkit.CheckKernels(t)
}
