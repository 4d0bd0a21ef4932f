package mathx

import (
	"fmt"
	"math"
)

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewMat allocates a zeroed rows×cols matrix.
func NewMat(rows, cols int) *Mat {
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set writes element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Mat) Row(i int) Vec { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// MulVec returns y = M·x, each output a Dot of its row with x.
func (m *Mat) MulVec(x Vec) Vec {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("mathx: MulVec dim mismatch %d vs %d", m.Cols, len(x)))
	}
	y := make(Vec, m.Rows)
	for i := range y {
		y[i] = Dot(m.Row(i), x)
	}
	return y
}

// orthonormalize applies modified Gram-Schmidt to the rows of m in place,
// returning the number of rows that remained linearly independent.
func orthonormalize(rows []Vec) int {
	kept := 0
	for _, r := range rows {
		for j := 0; j < kept; j++ {
			Axpy(-Dot(rows[j], r), rows[j], r)
		}
		n := Norm2(r)
		if n < 1e-12 {
			continue
		}
		Scale(1/n, r)
		rows[kept] = r
		kept++
	}
	return kept
}

// TopEigen computes the top-k eigenpairs of the symmetric positive
// semi-definite matrix represented by the callback apply (which must compute
// A·x) of dimension dim, using simultaneous (block) power iteration with
// periodic re-orthonormalization. It returns the eigenvectors as rows of a
// k×dim matrix and the corresponding eigenvalue estimates, sorted descending.
//
// iters controls the number of power steps; 50-100 is ample for the spectra
// that appear in PCA over the synthetic datasets in this repository.
func TopEigen(dim, k, iters int, rng *RNG, apply func(x Vec) Vec) (*Mat, Vec) {
	if k > dim {
		k = dim
	}
	basis := make([]Vec, k)
	for i := range basis {
		v := make(Vec, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		basis[i] = v
	}
	orthonormalize(basis)
	for it := 0; it < iters; it++ {
		for i := range basis {
			basis[i] = apply(basis[i])
		}
		orthonormalize(basis)
	}
	// Rayleigh quotients as eigenvalue estimates.
	vals := make(Vec, k)
	for i, v := range basis {
		vals[i] = Dot(v, apply(v))
	}
	// Sort by descending eigenvalue (selection sort; k is tiny).
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < k; j++ {
			if vals[j] > vals[best] {
				best = j
			}
		}
		vals[i], vals[best] = vals[best], vals[i]
		basis[i], basis[best] = basis[best], basis[i]
	}
	out := NewMat(k, dim)
	for i, v := range basis {
		copy(out.Row(i), v)
	}
	return out, vals
}

// Sigmoid returns 1/(1+e^-x) guarding against overflow.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}
