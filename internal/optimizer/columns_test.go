package optimizer

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"probpred/internal/core"
	"probpred/internal/mathx"
	"probpred/internal/testkit"
)

// lookup reads the column's scores for ids the way a leaf does: the spine
// once, a page's mask once per run of IDs in one page. A hit stores its
// score at scores[i]; a miss appends i to miss, which it returns.
func lookup(c *column, ids []int, scores []float64, miss []int) []int {
	sp := c.spine.Load()
	var p *scorePage
	var mask uint64
	for i, id := range ids {
		if i == 0 || id>>pageBits != ids[i-1]>>pageBits {
			p, mask = sp.page(id>>pageBits), 0
			if p != nil {
				mask = p.mask.Load()
			}
		}
		if b := uint(id) & (pageSize - 1); mask>>b&1 != 0 {
			scores[i] = p.scores[b]
		} else {
			miss = append(miss, i)
		}
	}
	return miss
}

// fifoStore is the score store's specification, written the plain way: a
// map of (PP, page) to the page's scores by blob ID, and the pages in
// insertion order, fed one ID at a time. A put of an unset score sets it
// and a put of a set one changes nothing; a put into an absent page inserts
// it at the back. Once a put batch has landed, pages leave from the front
// until at most budget remain. A PP is registered from the time it is
// resolved, or its column is written again, until its last page leaves.
type fifoStore struct {
	budget     int
	pages      map[refKey]map[int]float64
	order      []refKey
	perPP      map[*core.PP]int
	registered map[*core.PP]bool
	scores     int
	evictions  int
}

type refKey struct {
	pp   *core.PP
	page int
}

func newFIFOStore(budget int) *fifoStore {
	return &fifoStore{budget: budget, pages: map[refKey]map[int]float64{}, perPP: map[*core.PP]int{}, registered: map[*core.PP]bool{}}
}

func (r *fifoStore) resolve(pp *core.PP) { r.registered[pp] = true }

func (r *fifoStore) get(pp *core.PP, id int) (float64, bool) {
	v, ok := r.pages[refKey{pp, id >> pageBits}][id]
	return v, ok
}

func (r *fifoStore) put(pp *core.PP, id int, score float64) {
	k := refKey{pp, id >> pageBits}
	p, ok := r.pages[k]
	if !ok {
		p = map[int]float64{}
		r.pages[k] = p
		r.order = append(r.order, k)
		r.perPP[pp]++
		r.registered[pp] = true
	}
	if _, set := p[id]; !set {
		p[id] = score
		r.scores++
	}
}

// settle ends a put batch.
func (r *fifoStore) settle() {
	for len(r.order) > r.budget {
		k := r.order[0]
		r.order = r.order[1:]
		r.scores -= len(r.pages[k])
		delete(r.pages, k)
		if r.perPP[k.pp]--; r.perPP[k.pp] == 0 {
			delete(r.registered, k.pp)
		}
		r.evictions++
	}
}

// colCase sizes one differential run: the store in pages, the key space per
// ID base in pages, and the batches.
type colCase struct {
	pages, spanPages, maxBatch, steps int
}

// driveScoreColumns sends random lookups and puts to a store's columns and
// the same IDs one at a time to fifoStore, and fails on the first
// difference: an answer, Len, the page count or the registered PPs after a
// batch, or at the end the FIFO order, each resident page's mask and scores,
// and each column's directory. Batches mix skewed random IDs (unsorted,
// duplicated) with runs — ascending, descending and shuffled, dense or
// strided — that straddle page and chunk boundaries, over ID bases 0, 2^31
// and 2^40. It returns the store and the reference so a caller can ask what
// was exercised.
func driveScoreColumns(t testing.TB, tc colCase, seed uint64) (*ScoreColumns, *fifoStore, [2]uint64) {
	t.Helper()
	s := NewScoreColumns(tc.pages, false)
	ref := newFIFOStore(tc.pages)
	pps := []*core.PP{{}, {}, {}}
	cols := make([]*column, len(pps))
	for i, pp := range pps {
		cols[i] = s.column(pp)
		ref.resolve(pp)
	}
	rng := mathx.NewRNG(seed)
	span := tc.spanPages * pageSize
	bases := []int{0, int(uint64(1)<<31) - span/2, int(uint64(1) << 40)}
	ids := make([]int, tc.maxBatch)
	vals := make([]float64, tc.maxBatch)
	var miss []int
	var counts [2]uint64 // hits, misses
	for step := 0; step < tc.steps; step++ {
		c := rng.Intn(len(pps))
		pp, col := pps[c], cols[c]
		n := 1 + rng.Intn(tc.maxBatch)
		ids, vals := ids[:n], vals[:n]
		base := bases[rng.Intn(len(bases))]
		switch mode := rng.Intn(4); mode {
		case 0:
			// Skewed towards low IDs so some pages stay hot while others
			// churn, and so a batch repeats some of its own IDs.
			for i := range ids {
				ids[i] = base + rng.Intn(1+rng.Intn(span))
			}
		default:
			stride := []int{1, 1, 1, 2, 3, pageSize - 1, pageSize + 1}[rng.Intn(7)]
			start := base + rng.Intn(span)
			for i := range ids {
				ids[i] = start + i*stride
			}
			if mode == 2 {
				rng.ShuffleInts(ids)
			} else if mode == 3 {
				for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
					ids[i], ids[j] = ids[j], ids[i]
				}
			}
		}
		if rng.Intn(3) == 0 {
			for i := range vals {
				vals[i] = rng.Float64()
				ref.put(pp, ids[i], vals[i])
			}
			ref.settle()
			col.put(ids, vals)
		} else {
			for i := range vals {
				vals[i] = -1 // a miss must leave its slot alone
			}
			miss = lookup(col, ids, vals, miss[:0])
			m := 0
			for i, id := range ids {
				want, wantOK := ref.get(pp, id)
				gotOK := m == len(miss) || miss[m] != i
				if !gotOK {
					m++
					want = -1
					counts[1]++
				} else {
					counts[0]++
				}
				if gotOK != wantOK || vals[i] != want {
					t.Fatalf("%+v step %d probe %d (id %d) of %d: lookup = %v,%v, reference %v,%v", tc, step, i, id, n, vals[i], gotOK, want, wantOK)
				}
			}
		}
		if s.Len() != ref.scores || len(s.fifo) != len(ref.order) || len(s.cols) != len(ref.registered) {
			t.Fatalf("%+v step %d: %d scores, %d pages, %d columns; reference %d, %d, %d", tc, step, s.Len(), len(s.fifo), len(s.cols), ref.scores, len(ref.order), len(ref.registered))
		}
	}
	// The same FIFO, so the same victims from here on.
	fifo := s.fifo
	if len(fifo) != len(ref.order) {
		t.Fatalf("%+v: FIFO holds %d pages, reference %d", tc, len(fifo), len(ref.order))
	}
	for i, k := range ref.order {
		if fifo[i].col.pp != k.pp || fifo[i].page != k.page {
			t.Fatalf("%+v: FIFO diverges at %d", tc, i)
		}
		p := fifo[i].col.spine.Load().page(k.page)
		for b := 0; b < pageSize; b++ {
			v, ok := ref.pages[k][k.page<<pageBits|b]
			if (p.mask.Load()>>b&1 != 0) != ok || ok && p.scores[b] != v {
				t.Fatalf("%+v page %d: slot %d holds %v (bit %v), reference %v,%v", tc, k.page, b, p.scores[b], p.mask.Load()>>b&1, v, ok)
			}
		}
	}
	for i, col := range cols {
		checkSpine(t, col, ref.perPP[pps[i]])
	}
	return s, ref, counts
}

// checkSpine fails unless the column's directory holds exactly its pages
// pages, only in chunks that hold one, in ascending chunk order, and counts
// each chunk's pages.
func checkSpine(t testing.TB, c *column, pages int) {
	t.Helper()
	sp := c.spine.Load()
	if !slices.IsSorted(sp.nums) || len(sp.nums) != len(sp.chunks) {
		t.Fatalf("directory numbers %v are not ascending or not one per chunk", sp.nums)
	}
	total := 0
	for _, ch := range sp.chunks {
		live := 0
		for i := range ch.slots {
			if ch.slots[i].Load() != nil {
				live++
			}
		}
		if live != ch.live || live == 0 {
			t.Fatalf("chunk holds %d pages, counts %d", live, ch.live)
		}
		total += live
	}
	if total != pages {
		t.Fatalf("column holds %d pages in its spine, reference %d", total, pages)
	}
}

// TestScoreColumnsDifferential holds the store to fifoStore over budgets of
// one page, a few, a few dozen, enough for several chunks, and a run of
// scalar calls, with key spaces a few times the budget so most new pages
// evict. Each case must see hits, misses and evictions, so no side of the
// specification goes unexercised.
func TestScoreColumnsDifferential(t *testing.T) {
	for _, tc := range []colCase{
		{pages: 1, spanPages: 4, maxBatch: 150, steps: 3_000},
		{pages: 4, spanPages: 128, maxBatch: 200, steps: 4_000},
		{pages: 24, spanPages: 160, maxBatch: 300, steps: 4_000},
		{pages: 600, spanPages: 2_500, maxBatch: 2_000, steps: 1_200},
		{pages: 64, spanPages: 1_600, maxBatch: 1, steps: 30_000},
	} {
		_, ref, counts := driveScoreColumns(t, tc, uint64(tc.pages))
		if counts[0] == 0 || counts[1] == 0 || ref.evictions == 0 {
			t.Fatalf("%+v: %d hits, %d misses, %d evictions: one side of the specification is not exercised", tc, counts[0], counts[1], ref.evictions)
		}
	}
}

// FuzzScoreColumns runs the differential driver on fuzzed sizes and seeds.
func FuzzScoreColumns(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(4), uint8(130))
	f.Add(uint64(2), uint8(8), uint8(40), uint8(255))
	f.Add(uint64(3), uint8(31), uint8(90), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, pages, spanPages, maxBatch uint8) {
		driveScoreColumns(t, colCase{
			pages:     1 + int(pages)%32,
			spanPages: 1 + int(spanPages)%96,
			maxBatch:  1 + int(maxBatch),
			steps:     200,
		}, seed)
	})
}

// getOne and putOne are the scalar calls: a batch of one.
func getOne(c *column, id int) (float64, bool) {
	var score [1]float64
	miss := lookup(c, []int{id}, score[:], nil)
	return score[0], len(miss) == 0
}

func putOne(c *column, id int, score float64) { c.put([]int{id}, []float64{score}) }

// TestScoreColumnsFIFOEviction puts 100 pages of scores one at a time into
// a store of 8 pages: it must end holding exactly the 8 pages written last,
// full, with every resident score correct.
func TestScoreColumnsFIFOEviction(t *testing.T) {
	s := NewScoreColumns(8, false)
	c := s.column(&core.PP{})
	const n = 100 * pageSize
	for i := 0; i < n; i++ {
		putOne(c, i, float64(i))
	}
	if len(s.fifo) != 8 || s.Len() != 8*pageSize {
		t.Fatalf("store holds %d pages, %d scores; want the bound, 8 full pages", len(s.fifo), s.Len())
	}
	for i := 0; i < n; i++ {
		v, ok := getOne(c, i)
		if resident := i >= n-8*pageSize; ok != resident || ok && v != float64(i) {
			t.Fatalf("key %d: %v,%v; want resident = %v", i, v, ok, resident)
		}
	}
}

// TestScoreColumnsKeysByPPIdentity: two PPs scoring the same blob keep
// separate columns, and a page of one answers nothing for the other.
func TestScoreColumnsKeysByPPIdentity(t *testing.T) {
	s := NewScoreColumns(16, false)
	a, b := s.column(&core.PP{}), s.column(&core.PP{})
	putOne(a, 1, 0.5)
	putOne(b, 1, -0.5) // same blob, different PP (e.g. negation-derived)
	putOne(a, 2, 0.25) // same page as blob 1
	putOne(a, 1, 0.75) // a set score is never rewritten
	if v, ok := getOne(a, 1); !ok || v != 0.5 {
		t.Fatalf("PP a: got %v,%v want 0.5,true", v, ok)
	}
	if v, ok := getOne(b, 1); !ok || v != -0.5 {
		t.Fatalf("PP b: got %v,%v want -0.5,true", v, ok)
	}
	if v, ok := getOne(b, 2); ok {
		t.Fatalf("PP b answered %v for a blob only PP a scored", v)
	}
	if len(s.fifo) != 2 || s.Len() != 3 {
		t.Fatalf("store holds %d pages, %d scores; want 2, 3", len(s.fifo), s.Len())
	}
	d := NewScoreColumns(16, true)
	c := d.column(&core.PP{})
	putOne(c, 1, 0.5)
	if _, ok := getOne(c, 1); ok || d.Len() != 0 || len(d.fifo) != 0 {
		t.Fatal("disabled store stored a score")
	}
}

// TestScoreColumnsBudget pins the sizing DESIGN.md and serve's budget quote:
// a page is 520 bytes and is allocated in the 576-byte size class, so with
// its directory slot and FIFO record it costs ScorePageBytes. A store fed
// three budgets' worth of pages ends holding exactly the budget, full, and
// its directory spans only the chunks those pages live in, however far the
// IDs ran.
func TestScoreColumnsBudget(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if sz := unsafe.Sizeof(scorePage{}); sz != 520 {
		t.Fatalf("scorePage is %d bytes, want 520", sz)
	}
	const allocs = 1000
	keep := make([]*scorePage, allocs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = &scorePage{}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / allocs; per != 576 {
		t.Fatalf("a page allocates %d bytes, want the 576-byte size class", per)
	}
	runtime.KeepAlive(keep)
	if ScorePageBytes != 576+int(unsafe.Sizeof(uintptr(0)))+int(unsafe.Sizeof(pageRef{})) {
		t.Fatalf("ScorePageBytes = %d is not a page, a slot and a FIFO record", ScorePageBytes)
	}

	// Full pages 700 page numbers apart, so the IDs leave a chunk every page
	// or two and run far past where they started.
	const n = 300
	s := NewScoreColumns(n, false)
	c := s.column(&core.PP{})
	ids := make([]int, 3*n*pageSize)
	for i := range ids {
		ids[i] = (5*chunkSize+i>>pageBits*700)<<pageBits | i&(pageSize-1)
	}
	c.put(ids, make([]float64, len(ids)))
	if s.Len() != n*pageSize || len(s.fifo) != n || len(s.fifo) != n {
		t.Fatalf("full store: %d scores, %d pages, %d in FIFO; want %d, %d, %d", s.Len(), len(s.fifo), len(s.fifo), n*pageSize, n, n)
	}
	checkSpine(t, c, n)
	var want []int
	for _, id := range ids[2*n*pageSize:] {
		if ci := id >> (pageBits + chunkBits); len(want) == 0 || want[len(want)-1] != ci {
			want = append(want, ci)
		}
	}
	if sp := c.spine.Load(); !slices.Equal(sp.nums, want) {
		t.Fatalf("directory holds %d chunks, want the %d the last %d pages live in", len(sp.nums), len(want), n)
	}
}

// TestScoreColumnsDropsRetiredPPs churns 200 PPs through a store of a few
// pages: once a PP's last page is evicted its column leaves the store, so
// the store keeps no retired PP reachable.
func TestScoreColumnsDropsRetiredPPs(t *testing.T) {
	const budget = 4
	s := NewScoreColumns(budget, false)
	ids := make([]int, 3*pageSize)
	for i := range ids {
		ids[i] = i * 7
	}
	for i := 0; i < 200; i++ {
		s.column(&core.PP{}).put(ids, make([]float64, len(ids)))
	}
	if len(s.fifo) > budget || len(s.cols) > budget {
		t.Fatalf("store holds %d pages in %d columns; want at most %d of each", len(s.fifo), len(s.cols), budget)
	}
	for _, col := range s.cols {
		if len(col.spine.Load().nums) == 0 {
			t.Fatal("a column with no page is still in the store")
		}
	}
}

// TestScoreColumnsConcurrent runs readers, writers and eviction on the same
// pages at once: filters sharing one small store over overlapping blob
// ranges, each put evicting other goroutines' pages, and plain readers
// checking every hit they see against a fresh PP.Score. Run with -race it
// checks the publication order (scores before mask bits) and that no hit
// ever reads a slot being written.
func TestScoreColumnsConcurrent(t *testing.T) {
	blobs := testkit.Blobs(4000, 3)
	f := compileMini(t, "t=SUV & (c=red | c=white) & s<70", blobs)
	s := NewScoreColumns(16, false)
	cached := f.WithScoreCache(s)
	leaves := leavesOf(cached.node)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) { // writer and reader: a cached filter over a sliding window
			defer wg.Done()
			pass := make([]bool, 700)
			cost := make([]float64, 700)
			for i := 0; i < 40; i++ {
				lo := (w*311 + i*97) % (len(blobs) - 700)
				in := blobs[lo : lo+700]
				cached.TestBatch(in, pass, cost, nil)
				for j, b := range in {
					if ok, c := f.Test(b); ok != pass[j] || c != cost[j] {
						errs <- fmt.Sprintf("blob %d: cached (%v, %v), scalar (%v, %v)", b.ID, pass[j], cost[j], ok, c)
						return
					}
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) { // plain reader
			defer wg.Done()
			ids := make([]int, 256)
			scores := make([]float64, 256)
			var miss []int
			for i := 0; i < 200; i++ {
				l := leaves[i%len(leaves)]
				pp, c := l.pp, l.col
				lo := (w*523 + i*131) % (len(blobs) - len(ids))
				for k := range ids {
					ids[k] = lo + k
				}
				miss = lookup(c, ids, scores, miss[:0])
				m := 0
				for k, id := range ids {
					if m < len(miss) && miss[m] == k {
						m++
						continue
					}
					if want := pp.Score(blobs[id]); scores[k] != want {
						errs <- fmt.Sprintf("PP %s blob %d: hit %v, Score %v", pp.Clause, id, scores[k], want)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if len(s.fifo) > 16 || s.Len() > 16*pageSize {
		t.Fatalf("store holds %d pages, %d scores; bound is 16 pages", len(s.fifo), s.Len())
	}
}

// leavesOf returns a compiled expression's leaves in walk order.
func leavesOf(n compiledNode) []*compiledLeaf {
	var out []*compiledLeaf
	mapLeaves(n, func(l *compiledLeaf) *compiledLeaf {
		out = append(out, l)
		return l
	})
	return out
}
