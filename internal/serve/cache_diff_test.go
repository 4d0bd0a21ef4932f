package serve

import (
	"container/list"
	"fmt"
	"testing"
	"unsafe"

	"probpred/internal/core"
	"probpred/internal/mathx"
)

// pageLRU is the score cache's specification, written the plain way: per
// shard (chosen by the same function) a container/list of (PP, page) keys in
// recency order plus a map, fed one ID at a time. A lookup touches its page
// whenever the page is cached, hit or not; a put touches or inserts it,
// evicting from the cold end past the shard's capacity in pages.
type pageLRU struct {
	c         *scoreCache // for shard selection only
	shards    []*refShard // parallel to c.shards
	evictions int
}

type refKey struct {
	pp   *core.PP
	page int
}

type refPage struct {
	key    refKey
	scores map[int]float64 // by blob ID
}

type refShard struct {
	cap          int
	ll           *list.List // front = most recently used; values are *refPage
	items        map[refKey]*list.Element
	scores       int
	hits, misses uint64
}

func newPageLRU(c *scoreCache) *pageLRU {
	r := &pageLRU{c: c}
	for _, sh := range c.shards {
		r.shards = append(r.shards, &refShard{cap: sh.cap, ll: list.New(), items: map[refKey]*list.Element{}})
	}
	return r
}

func (r *pageLRU) Get(pp *core.PP, id int) (float64, bool) {
	k := refKey{pp, id >> pageBits}
	sh := r.shards[r.c.shardOf(k.page)]
	el, ok := sh.items[k]
	if ok {
		sh.ll.MoveToFront(el)
		if v, ok := el.Value.(*refPage).scores[id]; ok {
			sh.hits++
			return v, true
		}
	}
	sh.misses++
	return 0, false
}

func (r *pageLRU) Put(pp *core.PP, id int, score float64) {
	k := refKey{pp, id >> pageBits}
	sh := r.shards[r.c.shardOf(k.page)]
	el, ok := sh.items[k]
	if ok {
		sh.ll.MoveToFront(el)
	} else {
		el = sh.ll.PushFront(&refPage{key: k, scores: map[int]float64{}})
		sh.items[k] = el
		for sh.ll.Len() > sh.cap {
			last := sh.ll.Back().Value.(*refPage)
			sh.ll.Remove(sh.ll.Back())
			delete(sh.items, last.key)
			sh.scores -= len(last.scores)
			r.evictions++
		}
	}
	p := el.Value.(*refPage)
	if _, ok := p.scores[id]; !ok {
		sh.scores++
	}
	p.scores[id] = score
}

func (r *pageLRU) Len() int {
	n := 0
	for _, sh := range r.shards {
		n += sh.scores
	}
	return n
}

// cacheCase sizes one differential run: the cache in pages and shards, the
// key space per ID base in pages, and the batches.
type cacheCase struct {
	pages, shards, spanPages, maxBatch, steps int
}

// driveScoreCache sends random GetBatch and PutBatch calls to a paged cache
// and the same IDs one at a time to pageLRU, and fails on the first
// difference: an answer, the miss list, Len after a batch, or at the end a
// shard's page recency order (keys, masks and scores) or hit and miss
// counts. Batches mix skewed random IDs (unsorted, duplicated) with runs —
// ascending, descending and shuffled, dense or strided — that straddle page
// and shard boundaries, over ID bases 0, 2^31 and 2^40. It returns the cache
// and the reference so a caller can ask what was exercised.
func driveScoreCache(t testing.TB, tc cacheCase, seed uint64) (*scoreCache, *pageLRU) {
	t.Helper()
	c := newScoreCache(tc.pages, tc.shards, false)
	ref := newPageLRU(c)
	pps := []*core.PP{{}, {}, {}}
	rng := mathx.NewRNG(seed)
	span := tc.spanPages * pageSize
	bases := []int{0, int(uint64(1)<<31) - span/2, int(uint64(1) << 40)}
	ids := make([]int, tc.maxBatch)
	vals := make([]float64, tc.maxBatch)
	var miss []int
	for step := 0; step < tc.steps; step++ {
		pp := pps[rng.Intn(len(pps))]
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
				ref.Put(pp, ids[i], vals[i])
			}
			c.PutBatch(pp, ids, vals)
		} else {
			for i := range vals {
				vals[i] = -1 // a miss must leave its slot alone
			}
			miss = c.GetBatch(pp, ids, vals, miss[:0])
			m := 0
			for i, id := range ids {
				want, wantOK := ref.Get(pp, id)
				gotOK := m == len(miss) || miss[m] != i
				if !gotOK {
					m++
					want = -1
				}
				if gotOK != wantOK || vals[i] != want {
					t.Fatalf("%+v step %d probe %d (id %d) of %d: GetBatch = %v,%v, reference %v,%v", tc, step, i, id, n, vals[i], gotOK, want, wantOK)
				}
			}
			if m != len(miss) {
				t.Fatalf("%+v step %d: miss list %v is not ascending probe indices", tc, step, miss)
			}
		}
		if c.Len() != ref.Len() {
			t.Fatalf("%+v step %d: Len = %d, reference %d", tc, step, c.Len(), ref.Len())
		}
	}
	// Same counters and the same page recency order shard by shard, so the
	// same victims from here on.
	for i, sh := range c.shards {
		want := ref.shards[i]
		if sh.hits != want.hits || sh.misses != want.misses {
			t.Fatalf("%+v shard %d: %d hits, %d misses; reference %d, %d", tc, i, sh.hits, sh.misses, want.hits, want.misses)
		}
		slot := sh.slab[0].next
		for el := want.ll.Front(); el != nil; el = el.Next() {
			want := el.Value.(*refPage)
			p := &sh.slab[slot]
			if slot == 0 || p.pp != c.intern(want.key.pp) || p.page != want.key.page {
				t.Fatalf("%+v shard %d: recency lists diverge at slot %d", tc, i, slot)
			}
			for b := 0; b < pageSize; b++ {
				v, ok := want.scores[want.key.page<<pageBits|b]
				if (p.mask>>b&1 != 0) != ok || ok && p.scores[b] != v {
					t.Fatalf("%+v shard %d page %d: slot %d holds %v (bit %v), reference %v,%v", tc, i, p.page, b, p.scores[b], p.mask>>b&1, v, ok)
				}
			}
			slot = p.next
		}
		if slot != 0 {
			t.Fatalf("%+v shard %d: slab list is longer than the reference", tc, i)
		}
	}
	return c, ref
}

// TestScoreCacheDifferential holds the paged cache to pageLRU over capacities
// of one page in all, one page per shard, several pages per shard, enough to
// grow slab and index through several sizes, and a run of scalar calls, with
// a key space many shard runs wide and a few times the capacity, so every
// shard is used and most new pages evict. Each case must see hits, misses and
// evictions, and every shard lookups, so no side of the specification goes
// unexercised.
func TestScoreCacheDifferential(t *testing.T) {
	for _, tc := range []cacheCase{
		{pages: 1, shards: 1, spanPages: 4, maxBatch: 150, steps: 3_000},
		{pages: 4, shards: 4, spanPages: 128, maxBatch: 200, steps: 4_000},
		{pages: 24, shards: 3, spanPages: 160, maxBatch: 300, steps: 4_000},
		{pages: 600, shards: 5, spanPages: 1_500, maxBatch: 2_000, steps: 1_200},
		{pages: 64, shards: 16, spanPages: 1_600, maxBatch: 1, steps: 30_000},
	} {
		c, ref := driveScoreCache(t, tc, uint64(tc.pages))
		var hits, misses uint64
		for i, sh := range c.shards {
			if sh.hits+sh.misses == 0 {
				t.Fatalf("%+v shard %d saw no lookup", tc, i)
			}
			hits, misses = hits+sh.hits, misses+sh.misses
		}
		if hits == 0 || misses == 0 || ref.evictions == 0 {
			t.Fatalf("%+v: %d hits, %d misses, %d evictions: one side of the specification is not exercised", tc, hits, misses, ref.evictions)
		}
	}
}

// FuzzScoreCache runs the differential driver on fuzzed sizes and seeds.
func FuzzScoreCache(f *testing.F) {
	f.Add(uint64(1), uint8(1), uint8(1), uint8(4), uint8(130))
	f.Add(uint64(2), uint8(8), uint8(3), uint8(40), uint8(255))
	f.Add(uint64(3), uint8(31), uint8(7), uint8(90), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, pages, shards, spanPages, maxBatch uint8) {
		driveScoreCache(t, cacheCase{
			pages:     1 + int(pages)%32,
			shards:    1 + int(shards)%8,
			spanPages: 1 + int(spanPages)%96,
			maxBatch:  1 + int(maxBatch),
			steps:     200,
		}, seed)
	})
}

// TestScoreCacheBytesPerPage pins the sizing DESIGN.md and the cache-size
// comment quote: a page is 544 bytes, a full shard spends that plus 8 bytes
// of index on each page (8.6 per score when pages are full), and the default
// bound is the most pages the 40 MB budget buys at that price.
func TestScoreCacheBytesPerPage(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit platforms")
	}
	if sz := unsafe.Sizeof(scorePage{}); sz != 544 {
		t.Fatalf("scorePage is %d bytes, want 544", sz)
	}
	if scoreCachePages*552 > 40<<20 || (scoreCachePages+1)*552 <= 40<<20 {
		t.Fatalf("scoreCachePages = %d is not the most 552-byte pages in 40 MB", scoreCachePages)
	}
	const n = 1 << 8
	c := newScoreCache(n, 1, false)
	pp := &core.PP{}
	ids := make([]int, 3*n*pageSize)
	for i := range ids {
		ids[i] = i
	}
	c.PutBatch(pp, ids, make([]float64, len(ids)))
	sh := c.shards[0]
	if c.Len() != n*pageSize || cap(sh.slab) != n+1 || len(sh.index) != 2*n {
		t.Fatalf("full shard: %d scores, slab cap %d, index len %d; want %d, %d, %d", c.Len(), cap(sh.slab), len(sh.index), n*pageSize, n+1, 2*n)
	}
	bytes := cap(sh.slab)*int(unsafe.Sizeof(scorePage{})) + 4*len(sh.index)
	if want := 552*n + 544; bytes != want {
		t.Fatalf("full shard holds %d bytes of slab and index, want %d", bytes, want)
	}
}

// BenchmarkScoreCacheProbe reports ns per hit (one op = one lookup) with the
// cache as full as the serving benchmark leaves it: 60k scores is three PPs
// over a 20 000-blob corpus, 324k is traf20_steady's 324 359. Every lookup
// hits; the probes walk one PP's blob IDs and then move to the next PP, which
// is what a cycled query mix does, so by the time a PP comes round again its
// pages have left the CPU caches. scalar-of-one sends the IDs in scan order
// one GetBatch per ID, batch=20000 one GetBatch per PP; shuffled is the batch
// row with the IDs in random order, as an explicit Request.Blobs may send
// them, so every lookup probes a page.
func BenchmarkScoreCacheProbe(b *testing.B) {
	for _, res := range []struct {
		name     string
		pps, ids int
	}{{"resident=60k", 3, 20000}, {"resident=324k", 16, 20250}} {
		c := newScoreCache(scoreCachePages, scoreCacheShards, false)
		pps := make([]*core.PP, res.pps)
		ids := make([]int, res.ids)
		scores := make([]float64, res.ids)
		for i := range ids {
			ids[i] = i
		}
		for i := range pps {
			pps[i] = &core.PP{}
			c.PutBatch(pps[i], ids, scores)
		}
		shuffled := append([]int(nil), ids...)
		mathx.NewRNG(1).ShuffleInts(shuffled)
		for _, row := range []struct {
			name  string
			batch int
			ids   []int
		}{{"scalar-of-one", 1, ids}, {"batch=20000", 20000, ids}, {"shuffled", 20000, shuffled}} {
			b.Run(fmt.Sprintf("%s/%s", res.name, row.name), func(b *testing.B) {
				var miss []int
				b.ReportAllocs()
				for done, pp := 0, 0; done < b.N; pp++ {
					for lo := 0; lo < res.ids && done < b.N; lo += row.batch {
						hi := min(lo+row.batch, res.ids, lo+b.N-done)
						miss = c.GetBatch(pps[pp%len(pps)], row.ids[lo:hi], scores[lo:hi], miss[:0])
						done += hi - lo
					}
				}
				if len(miss) != 0 {
					b.Fatalf("%d lookups missed a full cache", len(miss))
				}
			})
		}
	}
}

// BenchmarkScoreCachePutNew reports ns per inserted score (one op = one
// put), in batches of a stream segment's 150 consecutive blobs.
func BenchmarkScoreCachePutNew(b *testing.B) {
	c := newScoreCache(scoreCachePages, scoreCacheShards, false)
	pp := &core.PP{}
	const batch = 150
	ids := make([]int, batch)
	scores := make([]float64, batch)
	b.ReportAllocs()
	for done := 0; done < b.N; done += batch {
		n := min(batch, b.N-done)
		for i := range ids[:n] {
			ids[i] = done + i
		}
		c.PutBatch(pp, ids[:n], scores[:n])
	}
}
