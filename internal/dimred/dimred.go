// Package dimred implements the dimension-reduction techniques ψ(·) from §5.4
// of the paper: identity (ψ(x)=x), principal component analysis, and feature
// hashing (Eq. 7). Reducers map raw blobs to the dense vectors consumed by
// the PP classifiers.
package dimred

import (
	"fmt"
	"math"

	"probpred/internal/blob"
	"probpred/internal/mathx"
)

// Reducer maps a blob's raw features to a (usually lower-dimensional) dense
// vector.
type Reducer interface {
	// Reduce projects one blob.
	Reduce(b blob.Blob) mathx.Vec
	// ReduceBatch reduces blobs row-major into dst, which must have length
	// len(blobs)*OutDim(): blob i's vector lands in
	// dst[i*OutDim():(i+1)*OutDim()], bit-identical to Reduce(blobs[i]) —
	// same per-entry accumulation order, not merely numerically close. Blobs
	// are assumed homogeneous in dimensionality (every generator in this
	// repository produces such sets). Batching lets a reducer run as a
	// blocked kernel and its callers recycle one buffer instead of
	// allocating a vector per blob.
	ReduceBatch(blobs []blob.Blob, dst []float64)
	// OutDim is the dimensionality of Reduce's output.
	OutDim() int
	// Name is a short identifier used in approach labels ("PCA", "FH", ...).
	Name() string
	// Cost is the virtual per-blob cost of applying the reducer, in the
	// repository-wide cost units (see internal/engine).
	Cost() float64
}

// Virtual cost constants, in the repository-wide unit of one virtual
// millisecond (see internal/engine). They are calibrated so that typical PP
// reducer+classifier costs land near the per-row test latencies the paper
// measures in Table 5 (FH+SVM ≈ 1 ms, PCA+KDE ≈ 3 ms, DNN ≈ 10 ms).
const (
	pcaCostPerEntry = 5e-4 // per basis entry touched during projection
	fhCostPerBucket = 2e-4 // per output bucket
)

// Identity is the ψ(x)=x reducer for dense blobs of dimension Dim. Sparse
// blobs are materialized, so Identity should only be used when Dim is modest.
type Identity struct{ Dim int }

// Reduce implements Reducer.
func (id Identity) Reduce(b blob.Blob) mathx.Vec { return b.DenseVec() }

// OutDim implements Reducer.
func (id Identity) OutDim() int { return id.Dim }

// Name implements Reducer.
func (id Identity) Name() string { return "Raw" }

// Cost implements Reducer.
func (id Identity) Cost() float64 { return 0 }

// PCA projects blobs onto the top principal components of a training
// sample, whitened so each retained component has unit variance. Whitening
// keeps any single high-variance nuisance direction (e.g. global
// illumination) from dominating the Euclidean distances the KDE classifier
// relies on.
type PCA struct {
	mean  mathx.Vec
	basis *mathx.Mat // k×d, rows are principal directions
	scale mathx.Vec  // per-component 1/σ whitening factors
}

// FitPCA computes a k-component PCA basis from the dense representations of
// the blobs in sample. Computing the basis over a small sampled subset is the
// speed/quality trade-off the paper describes in §5.4; callers pass the
// sample they want. It returns an error if the sample is empty or k < 1.
func FitPCA(sample []blob.Blob, k int, rng *mathx.RNG) (*PCA, error) {
	if len(sample) == 0 {
		return nil, fmt.Errorf("dimred: FitPCA requires a non-empty sample")
	}
	if k < 1 {
		return nil, fmt.Errorf("dimred: FitPCA requires k >= 1, got %d", k)
	}
	d := sample[0].Dim()
	mean := make(mathx.Vec, d)
	rows := make([]mathx.Vec, len(sample))
	for i, b := range sample {
		rows[i] = b.DenseVec()
		mathx.Axpy(1, rows[i], mean)
	}
	mathx.Scale(1/float64(len(sample)), mean)
	centered := make([]mathx.Vec, len(rows))
	for i, r := range rows {
		c := mathx.CloneVec(r)
		mathx.Axpy(-1, mean, c)
		centered[i] = c
	}
	// apply computes (1/n) Σ cᵢ (cᵢ·x): the covariance matrix applied to x
	// without materializing the d×d matrix.
	n := float64(len(centered))
	apply := func(x mathx.Vec) mathx.Vec {
		y := make(mathx.Vec, d)
		for _, c := range centered {
			mathx.Axpy(mathx.Dot(c, x)/n, c, y)
		}
		return y
	}
	basis, eig := mathx.TopEigen(d, k, 60, rng, apply)
	scale := make(mathx.Vec, basis.Rows)
	// Whiten with a relative eigenvalue floor: components are scaled to at
	// most unit variance, but near-noise components (σ far below the top
	// component's) are NOT amplified to unit scale — doing so would hand
	// pure noise the same weight as signal in the KDE's distances.
	sigmaMax := math.Sqrt(math.Max(eig[0], 1e-12))
	floor := 0.1 * sigmaMax
	for i := range scale {
		sigma := math.Sqrt(math.Max(eig[i], 1e-12))
		scale[i] = 1 / math.Max(sigma, floor)
	}
	return &PCA{mean: mean, basis: basis, scale: scale}, nil
}

// Reduce implements Reducer.
func (p *PCA) Reduce(b blob.Blob) mathx.Vec {
	x := mathx.CloneVec(b.DenseVec())
	mathx.Axpy(-1, p.mean, x)
	out := p.basis.MulVec(x)
	for i := range out {
		out[i] *= p.scale[i]
	}
	return out
}

// OutDim implements Reducer.
func (p *PCA) OutDim() int { return p.basis.Rows }

// Name implements Reducer.
func (p *PCA) Name() string { return "PCA" }

// Cost implements Reducer. Projection touches d·k entries.
func (p *PCA) Cost() float64 {
	return pcaCostPerEntry * float64(p.basis.Rows*p.basis.Cols)
}

// FeatureHash implements the two-hash feature hashing of Weinberger et al.
// (Eq. 7): h(j) maps each original index into one of OutDims buckets and
// η(j) ∈ {−1,+1} picks a sign. It requires no training and is well suited to
// sparse inputs; collisions degrade dense inputs (§5.4 usage note).
type FeatureHash struct {
	OutDims int
	Seed    uint64
}

// NewFeatureHash returns a hasher into outDims buckets. It panics if
// outDims < 1 because a hasher is a value type with no error channel.
func NewFeatureHash(outDims int, seed uint64) FeatureHash {
	if outDims < 1 {
		panic("dimred: FeatureHash requires outDims >= 1")
	}
	return FeatureHash{OutDims: outDims, Seed: seed}
}

// hash mixes the index with the seed (splitmix64 finalizer).
func (f FeatureHash) hash(j int) uint64 {
	z := uint64(j)*0x9e3779b97f4a7c15 + f.Seed
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// bucketSign returns h(j) and η(j).
func (f FeatureHash) bucketSign(j int) (int, float64) {
	h := f.hash(j)
	bucket := int(h % uint64(f.OutDims))
	sign := 1.0
	if (h>>32)&1 == 1 {
		sign = -1.0
	}
	return bucket, sign
}

// Reduce implements Reducer.
func (f FeatureHash) Reduce(b blob.Blob) mathx.Vec {
	out := make(mathx.Vec, f.OutDims)
	if b.Sparse != nil {
		for k, j := range b.Sparse.Idx {
			bucket, sign := f.bucketSign(j)
			out[bucket] += float64(sign * b.Sparse.Val[k])
		}
		return out
	}
	for j, v := range b.Dense {
		if v == 0 {
			continue
		}
		bucket, sign := f.bucketSign(j)
		out[bucket] += float64(sign * v)
	}
	return out
}

// OutDim implements Reducer.
func (f FeatureHash) OutDim() int { return f.OutDims }

// Name implements Reducer.
func (f FeatureHash) Name() string { return "FH" }

// Cost implements Reducer. Hashing touches each non-zero once; we charge for
// the output width as a conservative proxy.
func (f FeatureHash) Cost() float64 { return fhCostPerBucket * float64(f.OutDims) }
