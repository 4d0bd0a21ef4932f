package serve

import (
	"container/list"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"unsafe"

	"probpred/internal/core"
	"probpred/internal/optimizer"
)

// The two caches that make concurrent serving cheap:
//
//   - planCache memoizes optimizer decisions per (canonical predicate,
//     accuracy target), so sessions asking semantically equal questions skip
//     the plan search entirely. Entries record the corpus version they were
//     searched under and are dropped as stale once the corpus mutates (a
//     watchdog Remove or an online-training Add), because a plan compiled
//     against retired or retrained PPs must not keep serving.
//   - scoreCache memoizes per-(PP, blob) classifier scores across sessions in
//     a sharded bounded LRU of pages, each one PP's scores for 64 consecutive
//     blob IDs. Scores are pure functions of PP and blob, so a cached score is
//     bit-identical to a fresh one — the cache changes real CPU spent, never
//     results or virtual costs.

// Cache sizes. The score cache spends at most 40 MB, the budget of the 2^20
// scores at 40 B each it held when it kept one entry per score: 75 983 pages
// at 544 B of slab plus 8 of index each, allocated as it fills and striped
// over 16 locks. That is 4.9 M scores when every page is full.
const (
	planCacheSize    = 128
	scoreCachePages  = 40 << 20 / (int(unsafe.Sizeof(scorePage{})) + 8)
	scoreCacheShards = 16
)

// planEntry is one cached optimization outcome.
type planEntry struct {
	key string
	// version is the version of the corpus snapshot the plan search consulted
	// (Decision.CorpusVersion — never a separate Corpus.Version read, which
	// could be newer than the PPs the plan holds and pass every later
	// revalidation), refreshed in place (under the cache mutex) when a
	// revalidation proves the entry survived a corpus mutation untouched.
	version uint64
	// deps is the dependency-key set the plan search consulted
	// (Decision.Consulted): what the cache checks against the corpus's
	// per-clause mutation versions before evicting.
	deps []string
	dec  *optimizer.Decision
	// filter is the score-cache-attached compiled filter shared by every
	// session that hits this entry (nil when dec.Inject is false). Sharing
	// one object is deliberate: it is what makes cross-session score reuse
	// work, and the engine's per-run tallies keep the accounting separate.
	filter *optimizer.Compiled
}

// planCache is a bounded LRU over plan entries.
type planCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used; values are *planEntry
	items map[string]*list.Element
	// inflight is the set of keys resolve is searching right now; landed
	// (on mu) is broadcast each time one of those searches lands.
	inflight map[string]bool
	landed   *sync.Cond
	// corpus answers UnchangedSince for entries from older corpus versions:
	// a mutation (online retraining, watchdog trip) that left every key a
	// plan consulted untouched revalidates the entry instead of evicting it,
	// so segment-by-segment training of one clause does not strand every
	// other query's plan. Nil falls back to evict-on-any-version-change.
	corpus *optimizer.Corpus

	// hits / misses count resolve outcomes: sessions served an entry, and
	// sessions whose own search produced one.
	hits, misses atomic.Uint64

	invalidations atomic.Uint64
	// revalidations counts stale-version entries kept because none of their
	// consulted clauses changed.
	revalidations atomic.Uint64
	// demotions / promotions count adapt-driven cache maintenance: stale
	// entries dropped mid-query and re-ordered filters installed in their
	// place.
	demotions, promotions atomic.Uint64
}

func newPlanCache(capacity int, corpus *optimizer.Corpus) *planCache {
	c := &planCache{cap: capacity, ll: list.New(), items: map[string]*list.Element{}, inflight: map[string]bool{}, corpus: corpus}
	c.landed = sync.NewCond(&c.mu)
	return c
}

// resolve returns the valid entry under key, running search to produce and
// cache it when there is none. Concurrent callers for one key share one
// search: the first runs it (cached = false, a miss), the rest wait for a
// landing and look the key up again (a hit), so each still checks the entry
// against the corpus version it sees. A failed search caches nothing, counts
// nothing, and its waiters search for themselves. search runs without the
// cache mutex held.
func (c *planCache) resolve(key string, search func() (*planEntry, error)) (e *planEntry, cached bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if hit, ok := c.getLocked(key, c.corpus.Version()); ok {
			c.hits.Add(1)
			return hit, true, nil
		}
		if !c.inflight[key] {
			break
		}
		c.landed.Wait()
	}
	c.inflight[key] = true
	c.mu.Unlock()
	e, err = search()
	c.mu.Lock()
	delete(c.inflight, key)
	c.landed.Broadcast()
	if err == nil {
		c.putLocked(e)
		c.misses.Add(1)
	}
	return e, false, err
}

// getLocked returns the entry under key if present AND still valid at the current
// corpus version. An entry searched under an older version is revalidated
// against the corpus's per-clause mutation versions: if none of the keys the
// plan consulted changed, the search outcome could not have either, so the
// entry's version is refreshed and it keeps serving (counted as a
// revalidation). Otherwise it is removed and counted as an invalidation —
// exactly once, since the removal is under the cache mutex — and the caller
// sees a plain miss and re-plans against the new corpus. An entry searched on
// a newer snapshot than the caller's version read is served as it is. The
// caller holds mu.
func (c *planCache) getLocked(key string, version uint64) (*planEntry, bool) {
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	e := el.Value.(*planEntry)
	if e.version < version {
		if c.corpus == nil || !c.corpus.UnchangedSince(e.deps, e.version) {
			c.ll.Remove(el)
			delete(c.items, key)
			c.invalidations.Add(1)
			return nil, false
		}
		e.version = version
		c.revalidations.Add(1)
	}
	c.ll.MoveToFront(el)
	return e, true
}

// putLocked installs e under its key as the most recently used entry,
// evicting from the cold end past capacity. The caller holds mu.
func (c *planCache) putLocked(e *planEntry) {
	if el, ok := c.items[e.key]; ok {
		el.Value = e
		c.ll.MoveToFront(el)
		return
	}
	c.items[e.key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*planEntry).key)
	}
}

// demote drops the entry under key (if present), counting the demotion. The
// adapt controller calls this when mid-query observation shows the cached
// plan's statistics are stale; in-flight sessions keep their entry pointer
// (entries are immutable), later sessions re-resolve.
func (c *planCache) demote(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.ll.Remove(el)
	delete(c.items, key)
	c.demotions.Add(1)
	return true
}

// promote installs a re-ordered filter under key as a fresh entry (immutable
// swap: a new planEntry, never mutation of one other sessions may hold),
// counting the promotion. Decision and corpus version are inherited from the
// entry being replaced; when the key is absent (demoted moments ago, or
// evicted) the promotion needs a donor entry to inherit from, so the caller
// passes the one its session ran under.
func (c *planCache) promote(donor *planEntry, filter *optimizer.Compiled) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(&planEntry{key: donor.key, version: donor.version, deps: donor.deps, dec: donor.dec, filter: filter})
	c.promotions.Add(1)
}

// flush drops every entry (manual invalidation), counting them.
func (c *planCache) flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.invalidations.Add(uint64(len(c.items)))
	c.ll.Init()
	c.items = map[string]*list.Element{}
}

func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// A score page holds one PP's scores for the pageSize blobs whose IDs share
// the page number id >> pageBits.
const (
	pageBits = 6
	pageSize = 1 << pageBits
)

// scorePage is one slab slot: a memoized page of scores, its key, and its
// links in the shard's recency list. Bit b of mask says scores[b] holds the
// score of blob page<<pageBits | b. The key is PP identity (negation-derived
// PPs cache independently of their base) plus the page number. The PP is held
// as its interned number rather than its pointer, so the slab has no pointer
// in it and the collector never scans it. The struct is 544 bytes on 64-bit
// platforms, 8.5 bytes per score when the page is full.
type scorePage struct {
	pp         uint32 // scoreCache.intern
	prev, next int32  // slab slots; towards more / less recently used
	page       int
	mask       uint64
	scores     [pageSize]float64
}

// scoreShard is one lock's worth of the score cache: a bounded exact-LRU map
// of pages with no per-page allocation. Pages live in slab, which grows
// geometrically up to cap+1 slots and is then recycled in place; slot 0 is
// the sentinel of a circular recency list threaded through the pages' int32
// links (slab[0].next is the most, slab[0].prev the least recently used).
// index is an open-addressed table of slab slots (0 = empty) with linear
// probing at load ≤ 1/2, and backward-shift deletion so eviction leaves no
// tombstones.
type scoreShard struct {
	mu    sync.Mutex
	cap   int // pages
	slab  []scorePage
	index []int32 // len is a power of two
	shift uint    // 64 - log2(len(index)): a hash's top bits pick the home slot
	// scores is the number of set mask bits in the slab, hits and misses
	// count lookups; all three are guarded by mu, which every lookup takes
	// anyway.
	scores       int
	hits, misses uint64
}

// scoreIndexMin is the index size a shard starts with.
const scoreIndexMin = 64

func newScoreShard(capacity int) *scoreShard {
	sh := &scoreShard{cap: capacity, slab: make([]scorePage, 1, min(capacity+1, 8))}
	sh.resetIndex(scoreIndexMin)
	return sh
}

// scoreHash mixes a key into 64 bits whose top bits are used.
func scoreHash(pp uint32, page int) uint64 {
	h := uint64(page)*0x9E3779B97F4A7C15 + uint64(pp)*0xC2B2AE3D27D4EB4F
	return (h ^ h>>32) * 0x9E3779B97F4A7C15
}

// resetIndex replaces the index with an empty one of n buckets and re-enters
// every live slot.
func (sh *scoreShard) resetIndex(n int) {
	sh.index = make([]int32, n)
	sh.shift = uint(64 - bits.TrailingZeros(uint(n)))
	for slot := 1; slot < len(sh.slab); slot++ {
		sh.place(int32(slot))
	}
}

// place enters slot, whose key is not indexed, into the first free bucket of
// its probe run.
func (sh *scoreShard) place(slot int32) {
	mask := uint64(len(sh.index) - 1)
	e := &sh.slab[slot]
	i := sh.home(scoreHash(e.pp, e.page))
	for sh.index[i] != 0 {
		i = (i + 1) & mask
	}
	sh.index[i] = slot
}

// home returns the bucket a key hashing to h probes first.
func (sh *scoreShard) home(h uint64) uint64 { return h >> sh.shift }

// find returns the slab slot caching (pp, page), or 0.
func (sh *scoreShard) find(pp uint32, page int) int32 {
	mask := uint64(len(sh.index) - 1)
	for i := sh.home(scoreHash(pp, page)); ; i = (i + 1) & mask {
		slot := sh.index[i]
		if slot == 0 {
			return 0
		}
		if e := &sh.slab[slot]; e.page == page && e.pp == pp {
			return slot
		}
	}
}

// touch makes slot the most recently used.
func (sh *scoreShard) touch(slot int32) {
	slab := sh.slab
	if slab[0].next == slot {
		return
	}
	e := &slab[slot]
	slab[e.prev].next = e.next
	slab[e.next].prev = e.prev
	sh.pushFront(slot)
}

// pushFront links an unlinked slot in as the most recently used.
func (sh *scoreShard) pushFront(slot int32) {
	slab := sh.slab
	first := slab[0].next
	slab[slot].prev, slab[slot].next = 0, first
	slab[first].prev = slot
	slab[0].next = slot
}

// unindex removes slot's bucket from the index, shifting back the entries of
// its probe run that the hole would otherwise cut off from their home bucket.
func (sh *scoreShard) unindex(slot int32) {
	mask := uint64(len(sh.index) - 1)
	e := &sh.slab[slot]
	i := sh.home(scoreHash(e.pp, e.page))
	for sh.index[i] != slot {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; sh.index[j] != 0; j = (j + 1) & mask {
		m := &sh.slab[sh.index[j]]
		home := sh.home(scoreHash(m.pp, m.page))
		// The entry at j may fill the hole at i unless its home bucket lies
		// cyclically in (i, j]: then the hole is not on its probe path.
		if (j-home)&mask >= (j-i)&mask {
			sh.index[i] = sh.index[j]
			i = j
		}
	}
	sh.index[i] = 0
}

// insert caches an empty page for a key known to be absent as the most
// recently used, recycling the least recently used slot when the shard is
// full, and returns its slot.
func (sh *scoreShard) insert(pp uint32, page int) int32 {
	var slot int32
	if len(sh.slab) > sh.cap {
		slot = sh.slab[0].prev
		sh.unindex(slot)
		e := &sh.slab[slot]
		sh.slab[e.prev].next = 0
		sh.slab[0].prev = e.prev
		sh.scores -= bits.OnesCount64(e.mask)
	} else {
		if len(sh.slab) == cap(sh.slab) {
			// Grow by half, straight to the final size once that is within reach.
			n := cap(sh.slab) + cap(sh.slab)/2
			if n >= sh.cap {
				n = sh.cap + 1
			}
			grown := make([]scorePage, len(sh.slab), n)
			copy(grown, sh.slab)
			sh.slab = grown
		}
		slot = int32(len(sh.slab))
		sh.slab = append(sh.slab, scorePage{})
	}
	e := &sh.slab[slot]
	e.pp, e.page, e.mask = pp, page, 0
	sh.pushFront(slot)
	if 2*(len(sh.slab)-1) > len(sh.index) { // the sentinel is not indexed
		sh.resetIndex(2 * len(sh.index))
	} else {
		sh.place(slot)
	}
	return slot
}

// scoreCache implements optimizer.ScoreCache as a sharded bounded LRU of
// score pages, sharded by page number so concurrent sessions scanning the
// same stream spread their lookups across locks. A batch is walked in index
// order: a page is found and touched only when the page changes, and a lock
// taken only when the shard does. A sorted run of pageSize IDs costs one
// probe and one touch, then a mask test and an array load per ID. That is
// the outcome of the one-at-a-time sequence, whose later lookups in the run
// would find the page already most recently used. In disabled mode puts
// store nothing, so every lookup is counted as a miss — that is how the
// benchmark measures the uncached evaluation count through identical code
// paths.
type scoreCache struct {
	shards   []*scoreShard
	disabled bool
	// interned numbers every PP the cache has been asked about, from 1 and
	// never reusing a number. The table keeps each PP reachable, so its
	// address cannot be recycled for another PP and turn an old entry into a
	// stale hit; the price is that a retired PP's model outlives its entries.
	internMu sync.RWMutex
	interned map[*core.PP]uint32
}

// intern returns pp's number, assigning the next one on first sight.
func (c *scoreCache) intern(pp *core.PP) uint32 {
	c.internMu.RLock()
	n, ok := c.interned[pp]
	c.internMu.RUnlock()
	if ok {
		return n
	}
	c.internMu.Lock()
	defer c.internMu.Unlock()
	if n, ok := c.interned[pp]; ok {
		return n
	}
	n = uint32(len(c.interned) + 1)
	c.interned[pp] = n
	return n
}

// newScoreCache returns a cache of at most pages score pages over shards
// locks.
func newScoreCache(pages, shards int, disabled bool) *scoreCache {
	if shards < 1 {
		shards = 1
	}
	if shards > pages {
		shards = pages
	}
	// Slab links are int32 and slot 0 is taken.
	perShard := min((pages+shards-1)/shards, math.MaxInt32-1)
	c := &scoreCache{shards: make([]*scoreShard, shards), disabled: disabled, interned: map[*core.PP]uint32{}}
	for i := range c.shards {
		c.shards[i] = newScoreShard(perShard)
	}
	return c
}

// shardOf returns the index of the shard that owns a page. Runs of 16
// consecutive pages (1024 blob IDs) share a shard, so a batch in scan order
// changes locks once per run rather than once per page; Fibonacci hashing
// spreads the runs.
func (c *scoreCache) shardOf(page int) int {
	h := uint64(page>>4) * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(len(c.shards)))
}

// lockShard returns the shard that owns page, locked. held is the shard the
// caller has locked, or nil; it is released first when it is another one.
func (c *scoreCache) lockShard(page int, held *scoreShard) *scoreShard {
	sh := c.shards[c.shardOf(page)]
	if sh != held {
		if held != nil {
			held.mu.Unlock()
		}
		sh.mu.Lock()
	}
	return sh
}

// GetBatch implements optimizer.ScoreCache.
func (c *scoreCache) GetBatch(key *core.PP, ids []int, scores []float64, miss []int) []int {
	pp := c.intern(key)
	var sh *scoreShard
	var p *scorePage // ids[i]'s page, nil when it is not cached
	page := 0
	for i, id := range ids {
		if pg := id >> pageBits; sh == nil || pg != page {
			page, p = pg, nil
			sh = c.lockShard(page, sh)
			if slot := sh.find(pp, page); slot != 0 {
				sh.touch(slot)
				p = &sh.slab[slot]
			}
		}
		if b := id & (pageSize - 1); p != nil && p.mask>>b&1 != 0 {
			sh.hits++
			scores[i] = p.scores[b]
		} else {
			sh.misses++
			miss = append(miss, i)
		}
	}
	if sh != nil {
		sh.mu.Unlock()
	}
	return miss
}

// PutBatch implements optimizer.ScoreCache.
func (c *scoreCache) PutBatch(key *core.PP, ids []int, scores []float64) {
	if c.disabled || len(ids) == 0 {
		return
	}
	pp := c.intern(key)
	var sh *scoreShard
	var p *scorePage // ids[i]'s page
	page := 0
	for i, id := range ids {
		if pg := id >> pageBits; sh == nil || pg != page {
			page = pg
			sh = c.lockShard(page, sh)
			slot := sh.find(pp, page)
			if slot != 0 {
				sh.touch(slot)
			} else {
				slot = sh.insert(pp, page)
			}
			p = &sh.slab[slot]
		}
		b := id & (pageSize - 1)
		if p.mask>>b&1 == 0 {
			p.mask |= 1 << b
			sh.scores++
		}
		p.scores[b] = scores[i]
	}
	sh.mu.Unlock()
}

// Len returns the number of cached scores across all shards.
func (c *scoreCache) Len() int {
	n, _, _ := c.stats()
	return n
}

// stats returns the number of cached scores and the cumulative hit and miss
// counts, summed over the shards.
func (c *scoreCache) stats() (entries int, hits, misses uint64) {
	for _, sh := range c.shards {
		sh.mu.Lock()
		entries += sh.scores
		hits += sh.hits
		misses += sh.misses
		sh.mu.Unlock()
	}
	return entries, hits, misses
}
