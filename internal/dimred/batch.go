package dimred

import (
	"sync"

	"probpred/internal/blob"
	"probpred/internal/mathx"
)

// BatchReducer is the optional batch fast path of Reducer. Implementations
// write the reductions of many blobs into one caller-provided row-major flat
// buffer, which lets them run as blocked kernels (amortizing basis/table
// traversals over the batch) and lets callers recycle the buffer instead of
// allocating one vector per blob.
//
// The contract is strict so that the batch path can replace the scalar one
// anywhere: blob i's reduced vector must land in dst[i*OutDim():(i+1)*OutDim()]
// and must be bit-identical to Reduce(blobs[i]) — same per-entry accumulation
// order, not merely numerically close. Reducers that cannot guarantee this
// must simply not implement the interface; core.PP falls back to a per-blob
// loop for them.
type BatchReducer interface {
	Reducer
	// ReduceBatch reduces blobs into dst, which must have length
	// len(blobs)*OutDim(). Blobs are assumed homogeneous in dimensionality
	// (every generator in this repository produces such sets).
	ReduceBatch(blobs []blob.Blob, dst []float64)
}

// reduceBlock is how many blobs are centered/projected together by the PCA
// batch kernel: large enough to amortize the basis traversal, small enough
// that a block of centered inputs stays cache-resident.
const reduceBlock = 64

// centerPool recycles the PCA kernel's centered-input blocks.
var centerPool mathx.BufPool

// ReduceBatch implements BatchReducer: blobs are copied (sparse ones
// scattered) row-major into dst. Bit-identical to per-blob Reduce by
// construction — the values are moved, never transformed.
func (id Identity) ReduceBatch(blobs []blob.Blob, dst []float64) {
	d := id.Dim
	for i, b := range blobs {
		row := dst[i*d : (i+1)*d]
		if b.Sparse != nil {
			clear(row)
			for k, j := range b.Sparse.Idx {
				row[j] = b.Sparse.Val[k]
			}
			continue
		}
		copy(row, b.Dense)
	}
}

// ReduceBatch implements BatchReducer as a blocked projection kernel: a block
// of inputs is centered into a recycled scratch buffer, then each basis row
// sweeps the whole block while it is hot in cache. Per blob, each output
// component is Dot(basisRow, x−mean)·scale with the same accumulation order
// as Reduce, so batch and scalar projections are bit-identical.
func (p *PCA) ReduceBatch(blobs []blob.Blob, dst []float64) {
	k := p.basis.Rows
	d := p.basis.Cols
	block := centerPool.Get(reduceBlock * d)
	defer centerPool.Put(block)
	cent := block.V
	for start := 0; start < len(blobs); start += reduceBlock {
		nb := min(reduceBlock, len(blobs)-start)
		for r := 0; r < nb; r++ {
			row := cent[r*d : (r+1)*d]
			src := blobs[start+r].DenseVec()
			for j, v := range src {
				row[j] = v - p.mean[j]
			}
		}
		for i := 0; i < k; i++ {
			brow := p.basis.Row(i)
			sc := p.scale[i]
			for r := 0; r < nb; r++ {
				dst[(start+r)*k+i] = mathx.Dot(brow, cent[r*d:(r+1)*d]) * sc
			}
		}
	}
}

// fhTable caches bucket/sign lookups for one (seed, outDims) hasher over
// dense inputs of some dimensionality: the batch kernel hashes each feature
// index once per batch instead of once per blob. Entries are exactly
// bucketSign's outputs, so table-driven accumulation is bit-identical to the
// scalar path.
type fhTable struct {
	seed    uint64
	outDims int
	dims    int
	bucket  []int32
	sign    []float64
}

var fhTablePool sync.Pool

// table returns a bucket/sign table covering dims indices, reusing a pooled
// one when it matches this hasher and is large enough.
func (f FeatureHash) table(dims int) *fhTable {
	t, ok := fhTablePool.Get().(*fhTable)
	if !ok {
		t = &fhTable{}
	}
	if t.seed == f.Seed && t.outDims == f.OutDims && t.dims >= dims {
		return t
	}
	if cap(t.bucket) < dims {
		t.bucket = make([]int32, dims)
		t.sign = make([]float64, dims)
	}
	t.bucket, t.sign = t.bucket[:dims], t.sign[:dims]
	t.seed, t.outDims, t.dims = f.Seed, f.OutDims, dims
	for j := 0; j < dims; j++ {
		b, s := f.bucketSign(j)
		t.bucket[j] = int32(b)
		t.sign[j] = s
	}
	return t
}

// ReduceBatch implements BatchReducer. Dense blobs accumulate through a
// cached bucket/sign table (one splitmix64 hash + modulo per feature index
// per batch, instead of per blob); sparse blobs hash their non-zeros exactly
// like the scalar path. Accumulation visits features in index order either
// way, so batch and scalar outputs are bit-identical.
func (f FeatureHash) ReduceBatch(blobs []blob.Blob, dst []float64) {
	m := f.OutDims
	clear(dst[:len(blobs)*m])
	var t *fhTable
	for i, b := range blobs {
		row := dst[i*m : (i+1)*m]
		if b.Sparse != nil {
			for k, j := range b.Sparse.Idx {
				bucket, sign := f.bucketSign(j)
				row[bucket] += sign * b.Sparse.Val[k]
			}
			continue
		}
		if t == nil || t.dims < len(b.Dense) {
			t = f.table(len(b.Dense))
		}
		// Reslicing to the row's length lets the compiler drop the
		// bucket/sign bounds checks inside the accumulation loop.
		bucket, sign := t.bucket[:len(b.Dense)], t.sign[:len(b.Dense)]
		for j, v := range b.Dense {
			if v == 0 {
				continue
			}
			row[bucket[j]] += sign[j] * v
		}
	}
	if t != nil {
		fhTablePool.Put(t)
	}
}
