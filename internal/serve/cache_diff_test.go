package serve

import (
	"container/list"
	"fmt"
	"testing"
	"unsafe"

	"probpred/internal/core"
	"probpred/internal/mathx"
)

// listLRU is the score cache as it was before the slab: one container/list
// plus one map per shard, sharded by the same function. It is the reference
// the differential test holds the slab to.
type listLRU struct {
	c      *scoreCache // for shard selection only
	shards map[*scoreShard]*listShard
}

type listKey struct {
	pp *core.PP
	id int
}

type listEntry struct {
	key   listKey
	score float64
}

type listShard struct {
	cap          int
	ll           *list.List // front = most recently used
	items        map[listKey]*list.Element
	hits, misses uint64
}

func newListLRU(c *scoreCache) *listLRU {
	r := &listLRU{c: c, shards: map[*scoreShard]*listShard{}}
	for _, sh := range c.shards {
		r.shards[sh] = &listShard{cap: sh.cap, ll: list.New(), items: map[listKey]*list.Element{}}
	}
	return r
}

func (r *listLRU) shard(id int) *listShard { return r.shards[r.c.shards[r.c.shardOf(id)]] }

func (r *listLRU) Get(pp *core.PP, id int) (float64, bool) {
	sh := r.shard(id)
	el, ok := sh.items[listKey{pp, id}]
	if !ok {
		sh.misses++
		return 0, false
	}
	sh.hits++
	sh.ll.MoveToFront(el)
	return el.Value.(*listEntry).score, true
}

func (r *listLRU) Put(pp *core.PP, id int, score float64) {
	sh := r.shard(id)
	k := listKey{pp, id}
	if el, ok := sh.items[k]; ok {
		el.Value.(*listEntry).score = score
		sh.ll.MoveToFront(el)
		return
	}
	sh.items[k] = sh.ll.PushFront(&listEntry{key: k, score: score})
	for sh.ll.Len() > sh.cap {
		last := sh.ll.Back()
		sh.ll.Remove(last)
		delete(sh.items, last.Value.(*listEntry).key)
	}
}

func (r *listLRU) Len() int {
	n := 0
	for _, sh := range r.shards {
		n += len(sh.items)
	}
	return n
}

// TestScoreCacheDifferential drives the slab cache with random GetBatch and
// PutBatch calls and the list-and-map LRU it replaced with the same keys one
// at a time in index order — small capacity, several PPs, a key space a few
// times the capacity so most puts evict, batches from one key to several
// times the shard count with duplicate ids inside a batch — and requires the
// same answer for every probe and the same Len after every batch, then per
// shard the same recency order entry by entry and the same hit and miss
// counts. That is the proof that grouping a batch by shard leaves every
// shard's LRU victims exactly where the scalar sequence puts them.
func TestScoreCacheDifferential(t *testing.T) {
	for _, tc := range []struct{ size, shards, ids, maxBatch, steps int }{
		{size: 96, shards: 4, ids: 160, maxBatch: 24, steps: 40_000},
		{size: 1, shards: 1, ids: 3, maxBatch: 4, steps: 2_000},
		{size: 2000, shards: 3, ids: 1500, maxBatch: 300, steps: 1_500}, // grows slab and index through several sizes
		{size: 640, shards: 16, ids: 2000, maxBatch: 1, steps: 30_000},  // scalar calls only
	} {
		c := newScoreCache(tc.size, tc.shards, false)
		ref := newListLRU(c)
		pps := []*core.PP{{}, {}, {}, {}, {}}
		rng := mathx.NewRNG(uint64(tc.size))
		ids := make([]int, tc.maxBatch)
		vals := make([]float64, tc.maxBatch)
		var miss []int
		for step := 0; step < tc.steps; step++ {
			pp := pps[rng.Intn(len(pps))]
			n := 1 + rng.Intn(tc.maxBatch)
			ids, vals := ids[:n], vals[:n]
			for i := range ids {
				// Skewed towards low IDs so some keys stay hot while others
				// churn, and so a batch repeats some of its own ids.
				ids[i] = rng.Intn(1 + rng.Intn(tc.ids))
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
						t.Fatalf("size %d step %d probe %d of %d: GetBatch = %v,%v, reference %v,%v", tc.size, step, i, n, vals[i], gotOK, want, wantOK)
					}
				}
				if m != len(miss) {
					t.Fatalf("size %d step %d: miss list %v is not ascending probe indices", tc.size, step, miss)
				}
			}
			if c.Len() != ref.Len() {
				t.Fatalf("size %d step %d: Len = %d, reference %d", tc.size, step, c.Len(), ref.Len())
			}
		}
		// Same counters and the same recency order shard by shard, so the
		// same victims from here on.
		for i, sh := range c.shards {
			want := ref.shards[sh]
			if sh.hits != want.hits || sh.misses != want.misses {
				t.Fatalf("size %d shard %d: %d hits, %d misses; reference %d, %d", tc.size, i, sh.hits, sh.misses, want.hits, want.misses)
			}
			if want.hits == 0 || want.misses == 0 {
				t.Fatalf("size %d shard %d: %d hits, %d misses: one side of the lookup is not exercised", tc.size, i, want.hits, want.misses)
			}
			slot := sh.slab[0].next
			for el := want.ll.Front(); el != nil; el = el.Next() {
				want := el.Value.(*listEntry)
				e := sh.slab[slot]
				if slot == 0 || e.pp != c.intern(want.key.pp) || e.id != want.key.id || e.score != want.score {
					t.Fatalf("size %d shard %d: recency lists diverge at slot %d", tc.size, i, slot)
				}
				slot = e.next
			}
			if slot != 0 {
				t.Fatalf("size %d shard %d: slab list is longer than the reference", tc.size, i)
			}
		}
	}
}

// TestScoreCacheBytesPerEntry pins the sizing DESIGN.md quotes: a full shard
// spends 32 bytes of slab and 8 of index on each cached score.
func TestScoreCacheBytesPerEntry(t *testing.T) {
	if sz := unsafe.Sizeof(scoreEntry{}); sz != 32 && unsafe.Sizeof(uintptr(0)) == 8 {
		t.Fatalf("scoreEntry is %d bytes, want 32", sz)
	}
	const n = 1 << 12
	c := newScoreCache(n, 1, false)
	pp := &core.PP{}
	for i := 0; i < 3*n; i++ {
		putOne(c, pp, i, 1)
	}
	sh := c.shards[0]
	if c.Len() != n || cap(sh.slab) != n+1 || len(sh.index) != 2*n {
		t.Fatalf("full shard: %d entries, slab cap %d, index len %d; want %d, %d, %d", c.Len(), cap(sh.slab), len(sh.index), n, n+1, 2*n)
	}
}

// BenchmarkScoreCacheProbe reports ns per hit (one op = one lookup) with the
// cache as full as the serving benchmark leaves it: 60k entries is three PPs
// over a 20 000-blob corpus, 324k is traf20_steady's 324 359. Every lookup
// hits; the probes walk one PP's blob IDs in scan order and then move to the
// next PP, which is what a cycled query mix does, so by the time a PP comes
// round again its entries have left the CPU caches. scalar-of-one sends that
// sequence one GetBatch per ID, batch=20000 one GetBatch per PP.
func BenchmarkScoreCacheProbe(b *testing.B) {
	for _, res := range []struct {
		name     string
		pps, ids int
	}{{"resident=60k", 3, 20000}, {"resident=324k", 16, 20250}} {
		c := newScoreCache(1<<20, 16, false)
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
		for _, batch := range []int{1, 20000} {
			name := "scalar-of-one"
			if batch > 1 {
				name = fmt.Sprintf("batch=%d", batch)
			}
			b.Run(res.name+"/"+name, func(b *testing.B) {
				var miss []int
				b.ReportAllocs()
				for done, pp := 0, 0; done < b.N; pp++ {
					for lo := 0; lo < res.ids && done < b.N; lo += batch {
						hi := min(lo+batch, res.ids, lo+b.N-done)
						miss = c.GetBatch(pps[pp%len(pps)], ids[lo:hi], scores[lo:hi], miss[:0])
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
// put), in batches of a stream segment's 150 blobs.
func BenchmarkScoreCachePutNew(b *testing.B) {
	c := newScoreCache(1<<20, 16, false)
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
