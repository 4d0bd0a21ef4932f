package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDot(t *testing.T) {
	if got := Dot(Vec{1, 2, 3}, Vec{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot(Vec{1}, Vec{1, 2})
}

func TestAxpy(t *testing.T) {
	y := Vec{1, 1, 1}
	Axpy(2, Vec{1, 2, 3}, y)
	want := Vec{3, 5, 7}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy = %v, want %v", y, want)
		}
	}
}

func TestNorm2(t *testing.T) {
	if got := Norm2(Vec{3, 4}); got != 5 {
		t.Fatalf("Norm2 = %v", got)
	}
}

func TestSqDist(t *testing.T) {
	if got := SqDist(Vec{0, 0}, Vec{3, 4}); got != 25 {
		t.Fatalf("SqDist = %v", got)
	}
}

// Property: Dot is symmetric and bilinear in the first argument.
func TestDotPropertiesQuick(t *testing.T) {
	f := func(raw []float64, alpha float64) bool {
		if len(raw) == 0 || len(raw) > 64 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
		}
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) || math.Abs(alpha) > 1e3 {
			return true
		}
		a := CloneVec(raw)
		b := make(Vec, len(raw))
		for i := range b {
			b[i] = raw[len(raw)-1-i]
		}
		// Symmetry.
		if !almostEq(Dot(a, b), Dot(b, a), 1e-6*(1+math.Abs(Dot(a, b)))) {
			return false
		}
		// Homogeneity: (alpha a)·b == alpha (a·b).
		sa := CloneVec(a)
		Scale(alpha, sa)
		return almostEq(Dot(sa, b), alpha*Dot(a, b), 1e-5*(1+math.Abs(alpha*Dot(a, b))))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Cauchy-Schwarz |a·b| <= |a||b|.
func TestCauchySchwarzQuick(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 || len(raw)%2 != 0 || len(raw) > 64 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				return true
			}
		}
		h := len(raw) / 2
		a, b := raw[:h], raw[h:]
		return math.Abs(Dot(a, b)) <= Norm2(a)*Norm2(b)*(1+1e-9)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewSparseSortsAndMerges(t *testing.T) {
	s := NewSparse(10, []int{5, 2, 5}, []float64{1, 2, 3})
	if s.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", s.NNZ())
	}
	if s.Idx[0] != 2 || s.Idx[1] != 5 {
		t.Fatalf("indices not sorted: %v", s.Idx)
	}
	if s.Val[1] != 4 {
		t.Fatalf("duplicate not merged: %v", s.Val)
	}
}

func TestSparseDense(t *testing.T) {
	s := NewSparse(4, []int{1, 3}, []float64{2, -1})
	d := s.Dense()
	want := Vec{0, 2, 0, -1}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Dense = %v", d)
		}
	}
}

func TestNewSparseOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSparse(3, []int{3}, []float64{1})
}
