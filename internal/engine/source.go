package engine

import (
	"sync"
	"time"

	"probpred/internal/blob"
)

// The source stage: a plan's Scan and the PP filters that directly follow it
// run as one stage over the scan's blobs, the paper's placement of PPs on raw
// blobs before any UDF (§4–5, Figure 2). Each filter's TestBatch reads the
// blobs still in — the first filter the scan's own slice (one adaptive or
// worker chunk of it), a later one the blobs its predecessor passed —
// through pooled verdict and cost buffers, and rows are made once, in one
// slab sized by the survivors, only for the blobs every filter passes. A
// dropped blob costs no row, no copy and no clear.
//
// The ledger keeps its shape. The Scan position charges scanCost per blob as
// one term, before any filter's cost; each filter position keeps its
// cardinalities, cost, score-cache counts and worker chunk spans
// (PP[…][lo:hi], over the filter's input). Only Scan's WallNS drops to ≈ 0:
// the work it did is now timed inside the filters' positions.

// filterScratch is the recycled buffer set of one filter execution: the
// per-blob verdict and cost outputs, and blobs — the survivors one source
// filter hands the next, or the blobs gathered out of rows that did not
// come straight from a Scan.
type filterScratch struct {
	pass  []bool
	cost  []float64
	blobs []blob.Blob
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
	if cap(s.pass) < n {
		s.pass = make([]bool, n)
		s.cost = make([]float64, n)
	}
	return s
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

// rowsOf makes, in one slab of n rows, a row for each blob pass marks — for
// every blob when pass is nil.
func rowsOf(blobs []blob.Blob, pass []bool, n int) []Row {
	rows := make([]Row, n)
	k := 0
	for i := range blobs {
		if pass == nil || pass[i] {
			rows[k].Blob = blobs[i]
			k++
		}
	}
	return rows
}

// test runs the filter's kernel over blobs, split across workers as
// runChunks does (chunk spans under acc.span), filling pass and cost. It
// returns how many blobs passed and their cost, summed blob by blob within
// a chunk and chunk by chunk in order.
func (p *PPFilter) test(blobs []blob.Blob, pass []bool, cost []float64, cfg Config, acc *opAcc) chunkRun {
	return runChunks(cfg, &acc.span, p.Name(), len(blobs), func(_, lo, hi int) chunkRun {
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

// source runs the source stage over one chunk of the scan's blobs: each PP
// filter at positions 1 … first-1 tests the blobs still in, and the last
// one's survivors become rows. With no filter, every blob becomes a row.
func (r *run) source(blobs []blob.Blob, first int) []Row {
	if first == 1 {
		start := time.Now()
		rows := rowsOf(blobs, nil, len(blobs))
		r.accs[0].wallNS += time.Since(start).Nanoseconds()
		return rows
	}
	s := getFilterScratch(len(blobs))
	defer putFilterScratch(s)
	in := blobs
	for i := 1; ; i++ {
		acc, start := r.open(i), time.Now()
		pass := s.pass[:len(in)]
		res := r.ops[i].(*PPFilter).test(in, pass, s.cost[:len(in)], r.cfg, acc)
		if i == first-1 {
			rows := rowsOf(in, pass, res.out)
			r.charge(acc, len(in), res.out, res.cost, start)
			return rows
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
		r.charge(acc, len(in), res.out, res.cost, start)
		in = kept
	}
}
