package mathx

import (
	"fmt"
	"math"
	"sort"
)

// Vec is a dense float64 vector. Functions in this file treat Vec values as
// plain slices; callers own allocation.
type Vec = []float64

// Dot returns the inner product of a and b: Σ a_i·b_i in index order from
// +0, each product and sum rounded (the conversion keeps targets with FMA
// from fusing them). It panics if lengths differ.
func Dot(a, b Vec) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mathx: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i, v := range a {
		s += float64(v * b[i])
	}
	return s
}

// Axpy computes y += alpha*x in place: y[i] = y[i] + alpha·x[i], the
// product and the sum each rounded. It is Sweep with one term.
func Axpy(alpha float64, x, y Vec) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mathx: Axpy length mismatch %d vs %d", len(x), len(y)))
	}
	d, rows := [1]float64{alpha}, [1]int{0}
	sweep(y, d[:], x, rows[:])
}

// Scale multiplies x by alpha in place.
func Scale(alpha float64, x Vec) {
	for i := range x {
		x[i] *= alpha
	}
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x Vec) float64 {
	return math.Sqrt(Dot(x, x))
}

// SqDist returns the squared Euclidean distance between a and b: Σ (a_i −
// b_i)² in index order, each term a separately rounded subtract, multiply
// and add. The conversion keeps compilers for targets with FMA from fusing
// the multiply and the add, so the sum is the same on every platform and
// equals the k-NN scan's SIMD lanes (package knn).
func SqDist(a, b Vec) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mathx: SqDist length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i, v := range a {
		d := v - b[i]
		s += float64(d * d)
	}
	return s
}

// CloneVec returns a copy of x.
func CloneVec(x Vec) Vec {
	c := make(Vec, len(x))
	copy(c, x)
	return c
}

// Sparse is a sparse vector in coordinate form. Idx is sorted ascending and
// holds the indices of the non-zero entries; Val holds the matching values.
// Dim is the logical dimensionality.
type Sparse struct {
	Dim int
	Idx []int
	Val []float64
}

// NewSparse builds a sparse vector from parallel index/value slices. The
// input need not be sorted; the result is. Duplicate indices are summed.
func NewSparse(dim int, idx []int, val []float64) Sparse {
	if len(idx) != len(val) {
		panic("mathx: NewSparse index/value length mismatch")
	}
	order := make([]int, len(idx))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return idx[order[a]] < idx[order[b]] })
	s := Sparse{Dim: dim}
	for _, o := range order {
		i, v := idx[o], val[o]
		if i < 0 || i >= dim {
			panic(fmt.Sprintf("mathx: sparse index %d out of range [0,%d)", i, dim))
		}
		if n := len(s.Idx); n > 0 && s.Idx[n-1] == i {
			s.Val[n-1] += v
			continue
		}
		s.Idx = append(s.Idx, i)
		s.Val = append(s.Val, v)
	}
	return s
}

// NNZ returns the number of stored non-zeros.
func (s Sparse) NNZ() int { return len(s.Idx) }

// Dense materializes the sparse vector as a dense one.
func (s Sparse) Dense() Vec {
	d := make(Vec, s.Dim)
	for k, i := range s.Idx {
		d[i] = s.Val[k]
	}
	return d
}
