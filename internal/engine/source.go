package engine

import (
	"slices"
	"sync"
	"time"

	"probpred/internal/blob"
)

// The source stage: a plan's Scan and the PP filter that directly follows it
// run as one stage over the scan's blobs, the paper's placement of a PP on
// raw blobs before any UDF (§4–5, Figure 2). The filter's TestBatch reads the
// scan's own slice in one call through pooled verdict and cost buffers, and
// its survivors leave as a selection vector over those blobs: the row stage
// (rowstage.go) takes its morsels' positions from it and makes rows only for
// what it emits. A dropped blob costs no row, no copy and no clear.
//
// The ledger keeps its shape. The Scan position charges scanCost per blob as
// one term, before the filter's cost; the filter position keeps its
// cardinalities, cost and score-cache counts. Only Scan's WallNS drops to
// ≈ 0: the work it did is now timed inside the filter's position, and making
// the rows on the row stage's last position.

// filterScratch is the recycled buffer set of the source filter: the
// per-blob verdict and cost outputs, and sel, the survivors as positions in
// the scan's blobs. It holds no references, so it goes back to the pool as
// it is.
type filterScratch struct {
	pass []bool
	cost []float64
	sel  []int32
}

var filterScratchPool sync.Pool

// getFilterScratch returns a scratch with room for verdicts and costs of n
// blobs.
func getFilterScratch(n int) *filterScratch {
	s, ok := filterScratchPool.Get().(*filterScratch)
	if !ok {
		s = &filterScratch{}
	}
	if cap(s.pass) < n {
		s.pass = make([]bool, n)
		s.cost = make([]float64, n)
	}
	return s
}

// source runs the source stage over the scan's blobs: the filter f at
// position 1 tests them, and its survivors are the row stage's input. With
// no filter, every blob is. The input may point into the returned scratch,
// which the caller puts back once the row stage is done with it.
func (r *run) source(blobs []blob.Blob, f *PPFilter) (rowInput, *filterScratch) {
	if f == nil {
		return rowInput{scan: true, blobs: blobs}, nil
	}
	s := getFilterScratch(len(blobs))
	acc, start := r.open(1), time.Now()
	pass, costs := s.pass[:len(blobs)], s.cost[:len(blobs)]
	f.F.TestBatch(blobs, pass, costs, &acc.ctally)
	// Each position is written at the cursor, which only a survivor
	// advances: the compaction does not branch on a verdict.
	sel := slices.Grow(s.sel[:0], len(pass))[:len(pass)]
	k, cost := 0, 0.0
	for j, ok := range pass {
		sel[k] = int32(j)
		cost += costs[j]
		if ok {
			k++
		}
	}
	s.sel = sel[:k]
	r.charge(acc, len(blobs), k, cost, time.Since(start).Nanoseconds())
	return rowInput{scan: true, filtered: true, blobs: blobs, sel: s.sel}, s
}
