package mathx

import (
	"math"
	"testing"
)

func TestMatAtSet(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 || m.At(0, 0) != 0 {
		t.Fatal("At/Set mismatch")
	}
}

func TestMulVec(t *testing.T) {
	m := NewMat(2, 2)
	copy(m.Data, []float64{1, 2, 3, 4})
	y := m.MulVec(Vec{1, 1})
	if y[0] != 3 || y[1] != 7 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestOrthonormalize(t *testing.T) {
	rows := []Vec{{1, 1, 0}, {1, 0, 0}, {2, 2, 0}} // third is dependent on first
	kept := orthonormalize(rows)
	if kept != 2 {
		t.Fatalf("kept = %d, want 2", kept)
	}
	if !almostEq(Norm2(rows[0]), 1, 1e-12) || !almostEq(Norm2(rows[1]), 1, 1e-12) {
		t.Fatal("rows not unit length")
	}
	if !almostEq(Dot(rows[0], rows[1]), 0, 1e-12) {
		t.Fatal("rows not orthogonal")
	}
}

// TestTopEigenDiagonal checks that power iteration recovers the dominant
// eigenpairs of a known diagonal matrix.
func TestTopEigenDiagonal(t *testing.T) {
	diag := Vec{10, 5, 1, 0.1}
	apply := func(x Vec) Vec {
		y := make(Vec, len(x))
		for i := range x {
			y[i] = diag[i] * x[i]
		}
		return y
	}
	vecs, vals := TopEigen(4, 2, 200, NewRNG(1), apply)
	if !almostEq(vals[0], 10, 1e-6) || !almostEq(vals[1], 5, 1e-6) {
		t.Fatalf("eigenvalues = %v, want [10 5]", vals)
	}
	if !almostEq(math.Abs(vecs.At(0, 0)), 1, 1e-4) {
		t.Fatalf("first eigenvector = %v, want e0", vecs.Row(0))
	}
	if !almostEq(math.Abs(vecs.At(1, 1)), 1, 1e-4) {
		t.Fatalf("second eigenvector = %v, want e1", vecs.Row(1))
	}
}

func TestTopEigenKClamped(t *testing.T) {
	apply := func(x Vec) Vec { return CloneVec(x) }
	vecs, vals := TopEigen(3, 10, 10, NewRNG(2), apply)
	if vecs.Rows != 3 || len(vals) != 3 {
		t.Fatalf("k not clamped: rows=%d vals=%d", vecs.Rows, len(vals))
	}
}

func TestSigmoid(t *testing.T) {
	if !almostEq(Sigmoid(0), 0.5, 1e-12) {
		t.Fatal("Sigmoid(0) != 0.5")
	}
	if Sigmoid(100) <= 0.999 || Sigmoid(-100) >= 0.001 {
		t.Fatal("Sigmoid saturation wrong")
	}
	// No overflow at extremes.
	if math.IsNaN(Sigmoid(1e9)) || math.IsNaN(Sigmoid(-1e9)) {
		t.Fatal("Sigmoid overflow")
	}
}
