// Batch scoring fast path. The paper's premise is that PPs are cheap enough
// to run on every input blob (§5, Table 5); this file keeps the simulator
// itself cheap by scoring whole batches through flat, recycled buffers
// instead of allocating a reduced vector per blob and dispatching through
// two interfaces per row.
//
// The fast path engages only when both halves of the PP opt in: the reducer
// implements dimred.BatchReducer and the scorer implements BatchScorer. Both
// interfaces carry a bit-identicality contract — per-row accumulation order
// must match the scalar path exactly — so ScoreBatch is a drop-in replacement
// for a Score loop everywhere, including threshold comparisons and the
// engine's virtual-cost accounting. Third-party reducers or scorers that
// implement neither interface simply take the per-row fallback loop.
package core

import (
	"probpred/internal/blob"
	"probpred/internal/dimred"
	"probpred/internal/mathx"
)

// BatchScorer is the optional batch fast path of Scorer: score many reduced
// vectors held row-major in one flat buffer. The built-in families implement
// it (svm: one flat dot-product sweep; dnn and kde: the scalar kernel per row
// over one scratch held for the batch). Results must be bit-identical to
// calling Score on each row — implementations that cannot guarantee that
// must not implement the interface.
type BatchScorer interface {
	Scorer
	// ScoreBatch scores the len(out) vectors stored row-major in xs (row i
	// is xs[i*d:(i+1)*d]) into out.
	ScoreBatch(xs []float64, d int, out []float64)
}

// scoreTile bounds how many rows scoreInto reduces before scoring them.
// Tiling keeps the flat reduction buffer cache-resident: the scorer sweeps
// rows the reducer just wrote instead of re-streaming a batch-sized buffer
// from memory. Per-row results are independent of the tile boundary, so the
// bit-identicality contract is unaffected.
const scoreTile = 256

// flatPool recycles the row-major reduction buffers scoreInto fills.
var flatPool mathx.BufPool

// ScoreBatch scores every blob into dst (len(dst) must equal len(blobs)),
// bit-identical to calling Score per blob.
func (p *PP) ScoreBatch(blobs []blob.Blob, dst []float64) {
	scoreInto(p.reducer, p.scorer, blobs, dst)
	if p.negated {
		for i := range dst[:len(blobs)] {
			dst[i] = -dst[i]
		}
	}
}

// scoreAll scores a raw reducer+scorer pair over blobs into a fresh slice —
// the kernel behind curve construction, model selection and recalibration.
func scoreAll(reducer dimred.Reducer, scorer Scorer, blobs []blob.Blob) []float64 {
	scores := make([]float64, len(blobs))
	scoreInto(reducer, scorer, blobs, scores)
	return scores
}

// scoreInto is the one reduce→score loop. When both halves support batching,
// reductions are written tile by tile into one recycled row-major buffer and
// scored in a sweep; otherwise each blob takes the scalar path.
func scoreInto(reducer dimred.Reducer, scorer Scorer, blobs []blob.Blob, dst []float64) {
	br, rok := reducer.(dimred.BatchReducer)
	bs, sok := scorer.(BatchScorer)
	if !rok || !sok {
		for i, b := range blobs {
			dst[i] = scorer.Score(reducer.Reduce(b))
		}
		return
	}
	d := reducer.OutDim()
	buf := flatPool.Get(min(len(blobs), scoreTile) * d)
	flat := buf.V
	for lo := 0; lo < len(blobs); lo += scoreTile {
		hi := min(lo+scoreTile, len(blobs))
		br.ReduceBatch(blobs[lo:hi], flat[:(hi-lo)*d])
		bs.ScoreBatch(flat[:(hi-lo)*d], d, dst[lo:hi])
	}
	flatPool.Put(buf)
}
