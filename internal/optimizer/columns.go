package optimizer

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"probpred/internal/core"
)

// Cross-query PP-score reuse (§2's reuse economy): a PP is trained once per
// simple clause and shared by every query whose predicate implies it, so
// concurrent queries over one corpus score the same (PP, blob) pairs again
// and again. ScoreColumns computes each such score once and lets every
// consumer read it. A score is a pure function of PP and blob, so a stored
// one is bit-identical to a fresh one: reuse changes real CPU spent, never
// results or virtual costs.
//
// Each PP owns a column: a directory of 64-score pages indexed by
// id >> pageBits. A reader (a compiled leaf, which resolves its column once,
// in WithScoreCache) takes no lock, hashes nothing and writes no shared
// memory: it loads the directory once per batch and a page's mask once per
// run of IDs in the page. A writer holds its column's mutex, writes unset
// slots, then publishes their mask bits; it never rewrites a set slot, and a
// page is never recycled. Whole pages are evicted first in, first out, by
// swapping their directory slot to nil.

// A page holds one PP's scores for the pageSize blobs whose IDs share the
// page number id >> pageBits; a chunk is chunkSize page slots of the
// directory.
const (
	pageBits  = 6
	pageSize  = 1 << pageBits
	chunkBits = 6
	chunkSize = 1 << chunkBits
)

// ScorePageBytes is what one stored page costs: a scorePage's 520 bytes
// rounded up to the allocator's 576-byte size class, its 8-byte directory
// slot and its 16-byte FIFO record. Budgets in pages are bytes divided by it.
const ScorePageBytes = 576 + 8 + 16

// scorePage is one PP's memoized scores for one page of blob IDs. Bit b of
// mask says scores[b] holds the score of blob page<<pageBits | b. It holds
// no pointer, so the collector never scans it.
type scorePage struct {
	mask   atomic.Uint64
	scores [pageSize]float64
}

// chunk is chunkSize consecutive page slots of one column's directory.
type chunk struct {
	slots [chunkSize]atomic.Pointer[scorePage]
	live  int // pages in slots; guarded by the column's mu
}

// spine is a column's directory: its chunks, by ascending chunk number. It
// holds only chunks with a cached page and is immutable once published — a
// writer that adds or drops a chunk publishes a new spine — so however far
// an endless stream's IDs run, or however sparse they are, the directory is
// as large as the pages still cached.
type spine struct {
	nums   []int
	chunks []*chunk
}

// chunk returns the chunk numbered ci, or nil.
func (sp *spine) chunk(ci int) *chunk {
	if i, ok := slices.BinarySearch(sp.nums, ci); ok {
		return sp.chunks[i]
	}
	return nil
}

// page returns the page numbered pg, or nil.
func (sp *spine) page(pg int) *scorePage {
	if ch := sp.chunk(pg >> chunkBits); ch != nil {
		return ch.slots[pg&(chunkSize-1)].Load()
	}
	return nil
}

// with returns a copy of the spine with chunk ci set to ch, or dropped when
// ch is nil.
func (sp *spine) with(ci int, ch *chunk) *spine {
	i, ok := slices.BinarySearch(sp.nums, ci)
	nums, chunks := slices.Clone(sp.nums), slices.Clone(sp.chunks)
	switch {
	case ch == nil:
		nums, chunks = slices.Delete(nums, i, i+1), slices.Delete(chunks, i, i+1)
	case ok:
		chunks[i] = ch
	default:
		nums, chunks = slices.Insert(nums, i, ci), slices.Insert(chunks, i, ch)
	}
	return &spine{nums: nums, chunks: chunks}
}

// column is one PP's scores. mu serializes its writers and evictions.
type column struct {
	pp    *core.PP
	store *ScoreColumns
	spine atomic.Pointer[spine]
	mu    sync.Mutex
}

// pageRef names one cached page in the store's FIFO.
type pageRef struct {
	col  *column
	page int
}

// ScoreColumns is one replica's PP-score store: a column per PP, bounded in
// pages across all of them. Safe for concurrent use. Keys are PP identity
// plus blob ID, so a negation-derived PP keeps its own column (its scores
// differ in sign), and blob IDs must be unique within the corpus a store
// serves. A disabled store keeps the plumbing but stores nothing, so every
// lookup misses — how the uncached evaluation count is measured through
// identical code.
type ScoreColumns struct {
	budget   int // pages
	disabled bool
	// scores counts the published scores of cached pages.
	scores atomic.Int64

	// mu guards the column map and the FIFO. A column is in cols from the
	// first WithScoreCache that resolves it until its last page is evicted,
	// so a retired PP is not kept reachable by the store once its scores
	// are gone. fifo holds the cached pages in insertion order.
	mu   sync.Mutex
	cols map[*core.PP]*column
	fifo []pageRef
}

// NewScoreColumns returns a store of at most pages score pages (at least
// one); a disabled store stores nothing.
func NewScoreColumns(pages int, disabled bool) *ScoreColumns {
	return &ScoreColumns{budget: max(pages, 1), disabled: disabled, cols: map[*core.PP]*column{}}
}

// Len returns the number of stored scores.
func (s *ScoreColumns) Len() int { return int(s.scores.Load()) }

// column returns pp's column, making it on first sight.
func (s *ScoreColumns) column(pp *core.PP) *column {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.cols[pp]
	if c == nil {
		c = &column{pp: pp, store: s}
		c.spine.Store(&spine{})
		s.cols[pp] = c
	}
	return c
}

// put stores scores[k] as the column's score for blob ids[k] wherever that
// slot is unset, then evicts the oldest pages past the budget. Within a run
// of IDs in one page the new slots are written first and their mask bits
// published once, at the run's end.
func (c *column) put(ids []int, scores []float64) {
	s := c.store
	if s.disabled || len(ids) == 0 {
		return
	}
	c.mu.Lock()
	sp := c.spine.Load()
	var p *scorePage
	var set, fresh uint64 // p's published bits, and the bits this run wrote
	pg := 0
	for k, id := range ids {
		if q := id >> pageBits; p == nil || q != pg {
			c.publish(p, set, fresh)
			pg = q
			if p = sp.page(pg); p == nil {
				p, sp = c.install(pg, sp)
			}
			set, fresh = p.mask.Load(), 0
		}
		b := uint(id) & (pageSize - 1)
		if (set|fresh)>>b&1 == 0 {
			p.scores[b] = scores[k]
			fresh |= 1 << b
		}
	}
	c.publish(p, set, fresh)
	c.mu.Unlock()
	s.evictOver()
}

// publish makes the slots fresh marks readable. The caller holds mu, under
// which alone a mask changes.
func (c *column) publish(p *scorePage, set, fresh uint64) {
	if fresh != 0 {
		p.mask.Store(set | fresh)
		c.store.scores.Add(int64(bits.OnesCount64(fresh)))
	}
}

// install caches an empty page numbered pg, adding its chunk to the spine
// when needed, and enters it at the back of the store's FIFO. It returns the
// page and the spine now published. The caller holds mu.
func (c *column) install(pg int, sp *spine) (*scorePage, *spine) {
	s, ci := c.store, pg>>chunkBits
	s.mu.Lock()
	if len(sp.nums) == 0 && s.cols[c.pp] == nil {
		// Written again after its last page went: a filter still holds it.
		s.cols[c.pp] = c
	}
	s.fifo = append(s.fifo, pageRef{c, pg})
	s.mu.Unlock()
	ch := sp.chunk(ci)
	if ch == nil {
		ch = &chunk{}
		sp = sp.with(ci, ch)
		c.spine.Store(sp)
	}
	p := &scorePage{}
	ch.slots[pg&(chunkSize-1)].Store(p)
	ch.live++
	return p, sp
}

// evictOver evicts the oldest pages until the store is within its budget.
// Each victim is taken off the FIFO under the store's lock and evicted under
// its column's alone, so no goroutine ever holds two column locks.
func (s *ScoreColumns) evictOver() {
	for {
		s.mu.Lock()
		if len(s.fifo) <= s.budget {
			s.mu.Unlock()
			return
		}
		ref := s.fifo[0]
		s.fifo[0] = pageRef{} // the array outlives the slot: unpin the column
		s.fifo = s.fifo[1:]
		s.mu.Unlock()
		ref.col.evict(ref.page)
	}
}

// evict drops page pg from the column: its slot goes to nil, its chunk
// leaves the spine once empty, and the column leaves the store's map once it
// has no page.
func (c *column) evict(pg int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sp := c.spine.Load()
	ci := pg >> chunkBits
	ch := sp.chunk(ci)
	p := ch.slots[pg&(chunkSize-1)].Swap(nil)
	s := c.store
	s.scores.Add(-int64(bits.OnesCount64(p.mask.Load())))
	if ch.live--; ch.live > 0 {
		return
	}
	sp = sp.with(ci, nil)
	c.spine.Store(sp)
	if len(sp.nums) == 0 {
		s.mu.Lock()
		if s.cols[c.pp] == c {
			delete(s.cols, c.pp)
		}
		s.mu.Unlock()
	}
}

// WithScoreCache returns a copy of the compiled filter whose leaves read and
// fill their PPs' columns in store. The receiver is not modified — compiled
// filters are shared across concurrent sessions, so attaching a store must
// not mutate a filter another session is executing. Pass/fail results, row
// order and virtual costs are identical to the bare filter. A nil store
// returns the receiver unchanged.
func (c *Compiled) WithScoreCache(store *ScoreColumns) *Compiled {
	if c == nil || store == nil {
		return c
	}
	return &Compiled{name: c.name, node: mapLeaves(c.node, func(l *compiledLeaf) *compiledLeaf {
		cp := *l
		cp.col = store.column(l.pp)
		return &cp
	})}
}

// mapLeaves returns a copy of the expression tree with every leaf replaced by
// leaf(l), in walk order; conjunctions and disjunctions are rebuilt around
// the new kids and nodes that carry no PPs (dropAllNode) are shared. It is
// how a shared compiled filter gains a store or probes without being mutated.
func mapLeaves(n compiledNode, leaf func(*compiledLeaf) *compiledLeaf) compiledNode {
	mapKids := func(kids []compiledNode) []compiledNode {
		out := make([]compiledNode, len(kids))
		for i, k := range kids {
			out[i] = mapLeaves(k, leaf)
		}
		return out
	}
	switch v := n.(type) {
	case *compiledLeaf:
		return leaf(v)
	case *compiledConj:
		return &compiledConj{kids: mapKids(v.kids)}
	case *compiledDisj:
		return &compiledDisj{kids: mapKids(v.kids)}
	}
	return n
}
