package serve

import (
	"container/list"
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
	cap   int
	ll    *list.List // front = most recently used
	items map[listKey]*list.Element
}

func newListLRU(c *scoreCache) *listLRU {
	r := &listLRU{c: c, shards: map[*scoreShard]*listShard{}}
	for _, sh := range c.shards {
		r.shards[sh] = &listShard{cap: sh.cap, ll: list.New(), items: map[listKey]*list.Element{}}
	}
	return r
}

func (r *listLRU) shard(id int) *listShard { return r.shards[r.c.shard(id)] }

func (r *listLRU) Get(pp *core.PP, id int) (float64, bool) {
	sh := r.shard(id)
	el, ok := sh.items[listKey{pp, id}]
	if !ok {
		return 0, false
	}
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

// TestScoreCacheDifferential drives the slab cache and the list-and-map LRU
// it replaced with the same random Get/Put stream — small capacity, several
// PPs, a key space a few times the capacity, so most Puts evict — and
// requires the same answer and the same Len after every step, then the same
// recency order entry by entry, and hit/miss counters that add up.
func TestScoreCacheDifferential(t *testing.T) {
	for _, tc := range []struct{ size, shards, ids, steps int }{
		{size: 96, shards: 4, ids: 160, steps: 200_000},
		{size: 1, shards: 1, ids: 3, steps: 2_000},
		{size: 2000, shards: 3, ids: 1500, steps: 60_000}, // grows slab and index through several sizes
	} {
		c := newScoreCache(tc.size, tc.shards, false)
		ref := newListLRU(c)
		pps := []*core.PP{{}, {}, {}, {}, {}}
		rng := mathx.NewRNG(uint64(tc.size))
		var gets, hits uint64
		for step := 0; step < tc.steps; step++ {
			pp := pps[rng.Intn(len(pps))]
			// Skewed towards low IDs so some keys stay hot while others churn.
			id := rng.Intn(1 + rng.Intn(tc.ids))
			if rng.Intn(3) == 0 {
				v := rng.Float64()
				c.Put(pp, id, v)
				ref.Put(pp, id, v)
			} else {
				got, ok := c.Get(pp, id)
				want, wantOK := ref.Get(pp, id)
				if ok != wantOK || got != want {
					t.Fatalf("size %d step %d: Get = %v,%v, reference %v,%v", tc.size, step, got, ok, want, wantOK)
				}
				gets++
				if ok {
					hits++
				}
			}
			if c.Len() != ref.Len() {
				t.Fatalf("size %d step %d: Len = %d, reference %d", tc.size, step, c.Len(), ref.Len())
			}
		}
		if n, h, m := c.stats(); h != hits || h+m != gets || n != ref.Len() {
			t.Fatalf("size %d: stats = %d entries, %d hits, %d misses; want %d, %d, %d", tc.size, n, h, m, ref.Len(), hits, gets-hits)
		}
		// Same recency order, so the same victims from here on.
		for i, sh := range c.shards {
			slot := sh.slab[0].next
			for el := ref.shards[sh].ll.Front(); el != nil; el = el.Next() {
				want := el.Value.(*listEntry)
				e := sh.slab[slot]
				if slot == 0 || e.pp != want.key.pp || e.id != want.key.id || e.score != want.score {
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
		c.Put(pp, i, 1)
	}
	sh := c.shards[0]
	if c.Len() != n || cap(sh.slab) != n+1 || len(sh.index) != 2*n {
		t.Fatalf("full shard: %d entries, slab cap %d, index len %d; want %d, %d, %d", c.Len(), cap(sh.slab), len(sh.index), n, n+1, 2*n)
	}
}

func BenchmarkScoreCacheGetHit(b *testing.B) {
	c := newScoreCache(1<<20, 16, false)
	pps := []*core.PP{{}, {}, {}}
	const ids = 20000
	for _, pp := range pps {
		for id := 0; id < ids; id++ {
			c.Put(pp, id, 1)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Get(pps[i%len(pps)], i%ids)
	}
}

func BenchmarkScoreCachePutNew(b *testing.B) {
	c := newScoreCache(1<<20, 16, false)
	pp := &core.PP{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Put(pp, i, 1)
	}
}
