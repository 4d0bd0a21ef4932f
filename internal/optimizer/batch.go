package optimizer

import (
	"math"
	"math/bits"
	"sync"

	"probpred/internal/blob"
	"probpred/internal/engine"
)

// Batch evaluation of compiled PP expressions (engine.BlobFilter).
//
// The scalar reference Test walks the expression tree once per blob,
// short-circuiting conjunctions on the first failing kid and disjunctions on
// the first passing kid; the virtual cost charged to a blob therefore depends
// on which leaves actually ran. TestBatch preserves that exactly while
// evaluating each node over 64-row bitmaps: a node receives the words of the
// rows still active at its point of the walk and writes their verdict words.
// A conjunction keeps the rows that passed each kid (act &= kid), a
// disjunction collects the rows that passed (out |= kid) and keeps the rest
// (act &^= kid). A leaf scores its active rows — from its PP's score column
// where it has one, through core.PP.ScoreBatch (bit-identical to per-row
// Score) otherwise — visiting them in ascending order, and adds its constant
// cost to each in the same kid order the scalar walk would. Pass and cost
// therefore come out identical to the scalar path for every row.

// batchRun is one TestBatch call — its rows, their costs and the lookup
// tally — and the recycled buffers it works in: the rows' blob IDs (read
// once per call, by the first leaf with a score column), a stack of bitmap
// words the nodes take and give back, and what a leaf scores through: the
// rows it must score, their blobs and their scores. Runs are pooled; one is
// used by one goroutine at a time.
type batchRun struct {
	blobs  []blob.Blob
	cost   []float64
	ct     *engine.CacheTally
	ids    []int // nil until read
	idBuf  []int
	words  []uint64
	top    int
	miss   []int
	gather []blob.Blob
	scores []float64
	// dirty is how much of gather the leaves wrote since the run left the
	// pool: only that prefix holds references to clear. A batch served
	// wholly by score columns gathers no blob at all.
	dirty int
}

var batchRunPool sync.Pool

func getBatchRun(blobs []blob.Blob, cost []float64, ct *engine.CacheTally) *batchRun {
	r, ok := batchRunPool.Get().(*batchRun)
	if !ok {
		r = &batchRun{}
	}
	r.blobs, r.cost, r.ct = blobs, cost, ct
	return r
}

func putBatchRun(r *batchRun) {
	clear(r.gather[:r.dirty]) // drop blob references so the pool doesn't pin data
	r.blobs, r.cost, r.ct, r.ids, r.dirty, r.top = nil, nil, nil, nil, 0, 0
	batchRunPool.Put(r)
}

// bitmap takes nw words off the run's stack; the taker gives them back by
// restoring top. A stack that runs out moves to a larger array, and the
// words already taken stay valid in the old one.
func (r *batchRun) bitmap(nw int) []uint64 {
	if r.top+nw > len(r.words) {
		r.words = make([]uint64, 2*(r.top+nw))
	}
	w := r.words[r.top : r.top+nw : r.top+nw]
	r.top += nw
	return w
}

// gathered returns the run's blob and score buffers at length n.
func (r *batchRun) gathered(n int) ([]blob.Blob, []float64) {
	if cap(r.gather) < n {
		r.gather = make([]blob.Blob, n)
		r.scores = make([]float64, n)
	}
	r.dirty = max(r.dirty, n)
	return r.gather[:n], r.scores[:n]
}

// rowIDs returns the rows' blob IDs.
func (r *batchRun) rowIDs() []int {
	if r.ids == nil {
		if cap(r.idBuf) < len(r.blobs) {
			r.idBuf = make([]int, len(r.blobs))
		}
		r.ids = r.idBuf[:len(r.blobs)]
		for i := range r.blobs {
			r.ids[i] = r.blobs[i].ID
		}
	}
	return r.ids
}

// TestBatch implements engine.BlobFilter: pass[i] and cost[i] are exactly
// what Test(blobs[i]) would return, including short-circuit cost. ct is
// incremented once per PP-leaf score lookup that goes through a score
// column; on a filter with no columns it does not move.
func (c *Compiled) TestBatch(blobs []blob.Blob, pass []bool, cost []float64, ct *engine.CacheTally) {
	n := len(blobs)
	clear(cost[:n])
	r := getBatchRun(blobs, cost, ct)
	nw := (n + 63) >> 6
	act, out := r.bitmap(nw), r.bitmap(nw)
	for w := range act {
		act[w] = ^uint64(0)
	}
	if n&63 != 0 {
		act[nw-1] = 1<<(n&63) - 1
	}
	c.node.testBatch(r, act, out)
	for i := range pass[:n] {
		pass[i] = out[i>>6]>>(i&63)&1 != 0
	}
	putBatchRun(r)
}

// bit is 1 when ok and 0 otherwise, without a branch.
func bit(ok bool) uint64 {
	var b uint64
	if ok {
		b = 1
	}
	return b
}

// testBatch of a leaf: the rows its column holds are read in one pass, and
// the rest — every row without a column — are scored together through
// ScoreBatch, get their verdicts and costs, and go back to the column in one
// put. An instrumented leaf scores every row fresh, so its histogram sees
// each score in row order.
func (l *compiledLeaf) testBatch(r *batchRun, act, out []uint64) {
	th, lc := l.threshold, l.cost
	miss := r.miss[:0]
	if l.col != nil && l.scoreHist == nil {
		miss = readColumn(l.col.spine.Load(), act, out, r.rowIDs(), r.cost, th, lc, miss)
	} else {
		for w, word := range act {
			for ; word != 0; word &= word - 1 {
				miss = append(miss, w<<6|bits.TrailingZeros64(word))
			}
			out[w] = 0
		}
	}
	r.miss = miss
	bs, sc := r.gathered(len(miss))
	for k, i := range miss {
		bs[k] = r.blobs[i]
	}
	l.pp.ScoreBatch(bs, sc)
	for k, i := range miss {
		out[i>>6] |= bit(sc[k] >= th) << (i & 63)
		r.cost[i] += lc
	}
	n := 0
	for _, w := range act {
		n += bits.OnesCount64(w)
	}
	if l.scoreHist != nil {
		for _, v := range sc {
			l.scoreHist.Observe(v)
		}
		l.count(n, out)
	} else if l.col != nil {
		r.ct.Hit(uint64(n - len(miss)))
		r.ct.Miss(uint64(len(miss)))
		if len(miss) > 0 {
			for k, i := range miss {
				miss[k] = r.ids[i] // the put takes IDs: rewrite each row in place
			}
			l.col.put(miss, sc)
		}
	}
}

// readColumn is a column leaf's pass over its active rows, in ascending
// order: a row whose score sp holds gets its verdict bit in out (every word
// of out is written) and lc added to its cost; every other row is appended
// to miss, which it returns. A page's mask is loaded once per run of rows
// whose IDs share it.
func readColumn(sp *spine, act, out []uint64, ids []int, cost []float64, th, lc float64, miss []int) []int {
	var p *scorePage
	var mask uint64
	pg := math.MinInt // no ID's page
	for w, word := range act {
		var o uint64
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			i := w<<6 | b
			id := ids[i]
			if q := id >> pageBits; q != pg {
				pg, mask = q, 0
				if p = sp.page(q); p != nil {
					mask = p.mask.Load()
				}
			}
			if k := uint(id) & (pageSize - 1); mask>>k&1 != 0 {
				o |= bit(p.scores[k] >= th) << b
				cost[i] += lc
			} else {
				miss = append(miss, i)
			}
		}
		out[w] = o
	}
	return miss
}

// count feeds the leaf's instrument counters: n rows tested, the set bits
// of out passed.
func (l *compiledLeaf) count(n int, out []uint64) {
	passed := 0
	for _, w := range out {
		passed += bits.OnesCount64(w)
	}
	l.tested.Add(float64(n))
	l.passed.Add(float64(passed))
}

// testBatch of a conjunction: out starts as the active rows and keeps, kid
// by kid, only those that passed — the rows a failing kid settled drop out
// of the later kids' active set. With no kids every row passes.
func (c *compiledConj) testBatch(r *batchRun, act, out []uint64) {
	copy(out, act)
	top := r.top
	kid := r.bitmap(len(act))
	for _, k := range c.kids {
		k.testBatch(r, out, kid)
		var left uint64
		for w := range out {
			out[w] &= kid[w]
			left |= out[w]
		}
		if left == 0 {
			break
		}
	}
	r.top = top
}

// testBatch of a disjunction: a kid's passing rows are settled as passing
// and leave the active set the later kids see. With no kids no row passes.
func (d *compiledDisj) testBatch(r *batchRun, act, out []uint64) {
	clear(out)
	top := r.top
	cur, kid := r.bitmap(len(act)), r.bitmap(len(act))
	copy(cur, act)
	for _, k := range d.kids {
		k.testBatch(r, cur, kid)
		var left uint64
		for w := range cur {
			out[w] |= kid[w]
			cur[w] &^= kid[w]
			left |= cur[w]
		}
		if left == 0 {
			break
		}
	}
	r.top = top
}

func (dropAllNode) testBatch(_ *batchRun, _, out []uint64) { clear(out) }
