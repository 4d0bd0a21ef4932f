package mathx

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestAVX2SweepSelected: where the CPU and the OS support AVX2, Sweep,
// MomentumStep, Axpy, Affine and SqDists run the assembly kernels, so the
// kernel tests compare two kernels and not one with itself, and Kernels
// says so. Where /proc/cpuinfo can be read, the probe is held to Linux's own
// verdict: it lists the avx2 flag only when it also saves the YMM state.
func TestAVX2SweepSelected(t *testing.T) {
	if useAVX2 != hasAVX2() {
		t.Fatalf("hasAVX2 = %v, but the AVX2 kernels selected = %v", hasAVX2(), useAVX2)
	}
	if got := Kernels(); (got == "avx2") != useAVX2 {
		t.Fatalf("Kernels() = %q, but the AVX2 kernels selected = %v", got, useAVX2)
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
				if want := slices.Contains(strings.Fields(flags), "avx2"); useAVX2 != want {
					t.Fatalf("AVX2 kernels selected = %v, but /proc/cpuinfo lists avx2 = %v", useAVX2, want)
				}
				break
			}
		}
	}
	t.Logf("AVX2 kernels in use: %v", useAVX2)
}
