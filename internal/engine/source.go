package engine

import (
	"slices"
	"sync"
	"time"

	"probpred/internal/blob"
)

// The source stage: a plan's Scan and the PP filters that directly follow it
// run as one stage over the scan's blobs, the paper's placement of PPs on raw
// blobs before any UDF (§4–5, Figure 2). Each filter's TestBatch reads the
// blobs still in — the first filter the scan's own slice (one worker chunk
// of it), a later one the blobs its predecessor passed —
// through pooled verdict and cost buffers, and the last filter's survivors
// leave as a selection vector over the blobs it read: the row stage
// (rowstage.go) takes its morsels' positions from it and makes rows only for
// what it emits. A dropped blob costs no row, no copy and no clear.
//
// The ledger keeps its shape. The Scan position charges scanCost per blob as
// one term, before any filter's cost; each filter position keeps its
// cardinalities, cost, score-cache counts and worker chunk spans
// (PP[…][lo:hi], over the filter's input). Only Scan's WallNS drops to ≈ 0:
// the work it did is now timed inside the filters' positions, and making the
// rows on the row stage's last position.

// filterScratch is the recycled buffer set of one filter execution: the
// per-blob verdict and cost outputs; blobs — the survivors one source filter
// hands the next, or the blobs gathered out of rows; and sel, the last
// source filter's survivors as positions in the blobs it read.
type filterScratch struct {
	pass  []bool
	cost  []float64
	blobs []blob.Blob
	sel   []int32
	// dirty is how much of blobs was written since the scratch left the
	// pool: only that prefix holds references to clear.
	dirty int
}

var filterScratchPool sync.Pool

func getFilterScratch(n int) *filterScratch {
	s, ok := filterScratchPool.Get().(*filterScratch)
	if !ok {
		s = &filterScratch{}
	}
	s.reserve(n)
	return s
}

// reserve makes room for verdicts and costs of n blobs.
func (s *filterScratch) reserve(n int) {
	if cap(s.pass) < n {
		s.pass = make([]bool, n)
		s.cost = make([]float64, n)
	}
}

// blobBuf returns the scratch's blob buffer at length n.
func (s *filterScratch) blobBuf(n int) []blob.Blob {
	if cap(s.blobs) < n {
		s.blobs = make([]blob.Blob, n)
	}
	s.dirty = max(s.dirty, n)
	return s.blobs[:n]
}

func putFilterScratch(s *filterScratch) {
	clear(s.blobs[:s.dirty]) // drop blob references so the pool does not pin data
	s.dirty = 0
	filterScratchPool.Put(s)
}

// test runs the filter's kernel over blobs, split across workers as
// runChunks does (chunk spans under acc.span), filling pass and cost. It
// returns how many blobs passed and their cost, summed blob by blob within
// a chunk and chunk by chunk in order.
func (p *PPFilter) test(blobs []blob.Blob, pass []bool, cost []float64, cfg Config, acc *opAcc) chunkRun {
	return runChunks(cfg, &acc.span, p.Name(), len(blobs), func(lo, hi int) chunkRun {
		p.F.TestBatch(blobs[lo:hi], pass[lo:hi], cost[lo:hi], &acc.ctally)
		var r chunkRun
		for i := lo; i < hi; i++ {
			r.cost += cost[i]
			if pass[i] {
				r.out++
			}
		}
		return r
	})
}

// source runs the source stage over the scan's blobs: each PP
// filter at positions 1 … first-1 tests the blobs still in, and the last
// one's survivors are the row stage's input. With no filter, every blob is.
// The input may point into the returned scratch, which the caller puts back
// once the row stage is done with it.
func (r *run) source(blobs []blob.Blob, first int) (rowInput, *filterScratch) {
	if first == 1 {
		return rowInput{scan: true, blobs: blobs}, nil
	}
	s := getFilterScratch(len(blobs))
	in := blobs
	for i := 1; ; i++ {
		acc, start := r.open(i), time.Now()
		pass := s.pass[:len(in)]
		res := r.ops[i].(*PPFilter).test(in, pass, s.cost[:len(in)], r.cfg, acc)
		if i == first-1 {
			// Each position is written at the cursor, which only a
			// survivor advances: the compaction does not branch on a
			// verdict.
			sel := slices.Grow(s.sel[:0], len(pass))[:len(pass)]
			k := 0
			for j, ok := range pass {
				sel[k] = int32(j)
				if ok {
					k++
				}
			}
			sel = sel[:k]
			s.sel = sel
			r.charge(acc, len(in), res.out, res.cost, time.Since(start).Nanoseconds())
			return rowInput{scan: true, filtered: true, blobs: in, sel: sel}, s
		}
		// Hand the survivors to the next filter. Once they sit in the
		// scratch buffer, a later filter's survivors are compacted within
		// it in place (k never passes j).
		kept := s.blobBuf(res.out)
		k := 0
		for j, ok := range pass {
			if ok {
				kept[k] = in[j]
				k++
			}
		}
		r.charge(acc, len(in), res.out, res.cost, time.Since(start).Nanoseconds())
		in = kept
	}
}
