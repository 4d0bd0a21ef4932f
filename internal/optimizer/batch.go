package optimizer

import (
	"sync"

	"probpred/internal/blob"
	"probpred/internal/engine"
)

// Batch evaluation of compiled PP expressions (engine.BlobFilter).
//
// The scalar reference Test walks the expression tree once per blob,
// short-circuiting conjunctions on the first failing kid and disjunctions on
// the first passing kid; the virtual cost charged to a blob therefore depends
// on which leaves actually ran. TestBatch preserves that exactly while scoring
// each leaf over many rows at once: every node receives the list of row indices
// still "active" at that point of the walk, a leaf gathers just those rows
// and scores them through core.PP.ScoreBatch (the allocation-free batch
// kernel), and conjunction/disjunction nodes compact the active list between
// kids instead of branching per row. Because a leaf adds its constant cost to
// cost[i] in the same kid order the scalar walk would have, and ScoreBatch is
// bit-identical to per-row Score, pass/cost come out identical to the scalar
// path for every row.

// batchScratch holds the recycled buffers of one TestBatch call: a free-list
// of index slices for the per-node active lists plus the gather buffers the
// leaves score through. ids and missScores belong to the cached path: the
// active rows' blob IDs for the batch probe, and the scatter buffer for
// freshly scored cache misses. One scratch is used by one goroutine at a time.
type batchScratch struct {
	idxFree    [][]int
	blobs      []blob.Blob
	scores     []float64
	ids        []int
	missScores []float64
	// dirty is how much of blobs the leaves wrote since the scratch left
	// the pool: only that prefix holds references to clear. A batch served
	// wholly by the score cache gathers no blob at all.
	dirty int
}

var batchScratchPool sync.Pool

func getBatchScratch() *batchScratch {
	if s, ok := batchScratchPool.Get().(*batchScratch); ok {
		return s
	}
	return &batchScratch{}
}

func putBatchScratch(s *batchScratch) {
	clear(s.blobs[:s.dirty]) // drop blob references so the pool doesn't pin data
	s.dirty = 0
	batchScratchPool.Put(s)
}

// getIdx returns an empty index slice with capacity ≥ n, reusing a previously
// released one when available.
func (s *batchScratch) getIdx(n int) []int {
	if last := len(s.idxFree) - 1; last >= 0 {
		sl := s.idxFree[last]
		s.idxFree = s.idxFree[:last]
		if cap(sl) >= n {
			return sl[:0]
		}
	}
	return make([]int, 0, n)
}

func (s *batchScratch) putIdx(sl []int) { s.idxFree = append(s.idxFree, sl) }

// TestBatch implements engine.BlobFilter: pass[i] and cost[i] are exactly
// what Test(blobs[i]) would return, including short-circuit cost. ct is
// incremented once per PP-leaf score lookup that goes through an attached
// score cache; on a filter with no cache it does not move.
func (c *Compiled) TestBatch(blobs []blob.Blob, pass []bool, cost []float64, ct *engine.CacheTally) {
	n := len(blobs)
	clear(cost[:n])
	s := getBatchScratch()
	act := s.getIdx(n)
	for i := 0; i < n; i++ {
		act = append(act, i)
	}
	c.node.testBatch(blobs, act, pass, cost, s, ct)
	s.putIdx(act)
	putBatchScratch(s)
}

func (l *compiledLeaf) testBatch(blobs []blob.Blob, active []int, pass []bool, cost []float64, s *batchScratch, ct *engine.CacheTally) {
	n := len(active)
	if cap(s.blobs) < n {
		s.blobs = make([]blob.Blob, n)
		s.scores = make([]float64, n)
		s.ids = make([]int, n)
		s.missScores = make([]float64, n)
	}
	bs, sc := s.blobs[:n], s.scores[:n]
	if l.cache != nil {
		// Resolve what the cache already knows in one probe, then
		// batch-score only the misses through the same ScoreBatch kernel the
		// uncached path uses (bit-identical to per-row Score), and scatter
		// them back so sc[j] ends up identical to the uncached fill for
		// every active row. The misses go back to the cache in one put.
		ids := s.ids[:n]
		for j, i := range active {
			ids[j] = blobs[i].ID
		}
		missIdx := l.cache.GetBatch(l.pp, ids, sc, s.getIdx(n))
		if nm := len(missIdx); nm > 0 {
			mb, ms := bs[:nm], s.missScores[:nm]
			s.dirty = max(s.dirty, nm)
			for k, j := range missIdx {
				mb[k] = blobs[active[j]]
				ids[k] = ids[j] // k <= j: compacts the miss IDs in place
			}
			l.pp.ScoreBatch(mb, ms)
			for k, j := range missIdx {
				sc[j] = ms[k]
			}
			l.cache.PutBatch(l.pp, ids[:nm], ms)
		}
		ct.Hit(uint64(n - len(missIdx)))
		ct.Miss(uint64(len(missIdx)))
		s.putIdx(missIdx)
	} else {
		s.dirty = max(s.dirty, n)
		for j, i := range active {
			bs[j] = blobs[i]
		}
		l.pp.ScoreBatch(bs, sc)
	}
	passedN := 0
	for j, i := range active {
		ok := sc[j] >= l.threshold
		pass[i] = ok
		cost[i] += l.cost
		if ok {
			passedN++
		}
	}
	if l.probe != nil {
		l.probe.tested.Add(uint64(n))
		l.probe.passed.Add(uint64(passedN))
	}
	if l.scoreHist != nil {
		passed := 0
		for _, v := range sc {
			l.scoreHist.Observe(v)
			if v >= l.threshold {
				passed++
			}
		}
		l.tested.Add(float64(n))
		l.passed.Add(float64(passed))
	}
}

func (c *compiledConj) testBatch(blobs []blob.Blob, active []int, pass []bool, cost []float64, s *batchScratch, ct *engine.CacheTally) {
	shortCircuitBatch(c.kids, false, blobs, active, pass, cost, s, ct)
}

func (d *compiledDisj) testBatch(blobs []blob.Blob, active []int, pass []bool, cost []float64, s *batchScratch, ct *engine.CacheTally) {
	shortCircuitBatch(d.kids, true, blobs, active, pass, cost, s, ct)
}

// shortCircuitBatch evaluates kids in order, mirroring the scalar
// short-circuit: a kid's verdict equal to decides settles a row (a failing
// kid settles a conjunction's row, a passing kid a disjunction's) and
// pass[i] keeps it; only the unsettled rows go on to the next kid. With no
// kids every row gets the verdict nothing could overturn.
func shortCircuitBatch(kids []compiledNode, decides bool, blobs []blob.Blob, active []int, pass []bool, cost []float64, s *batchScratch, ct *engine.CacheTally) {
	if len(kids) == 0 {
		for _, i := range active {
			pass[i] = !decides
		}
		return
	}
	act := append(s.getIdx(len(active)), active...)
	for _, k := range kids {
		k.testBatch(blobs, act, pass, cost, s, ct)
		keep := act[:0]
		for _, i := range act {
			if pass[i] != decides {
				keep = append(keep, i)
			}
		}
		act = keep
		if len(act) == 0 {
			break
		}
	}
	s.putIdx(act)
}

func (dropAllNode) testBatch(_ []blob.Blob, active []int, pass []bool, _ []float64, _ *batchScratch, _ *engine.CacheTally) {
	for _, i := range active {
		pass[i] = false
	}
}
