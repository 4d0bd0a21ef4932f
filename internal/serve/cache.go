package serve

import (
	"container/list"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

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
//     a sharded bounded LRU. Scores are pure functions of PP and blob, so a
//     cached score is bit-identical to a fresh one — the cache changes real
//     CPU spent, never results or virtual costs.

// Cache sizes. The score cache holds 1<<20 (PP, blob) scores — 40 MB when
// full, at 32 bytes of slab plus 8 of index per entry, allocated as it
// fills — striped over 16 locks.
const (
	planCacheSize    = 128
	scoreCacheSize   = 1 << 20
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

// scoreEntry is one slab slot: a memoized score, its key, and its links in
// the shard's recency list. The key is PP identity (negation-derived PPs
// cache independently of their base) plus the blob's corpus-unique ID. The
// PP is held as its interned number rather than its pointer, so the entry has
// no pointer in it and the collector never scans a slab. The struct is 32
// bytes on 64-bit platforms, two per cache line.
type scoreEntry struct {
	pp         uint32 // scoreCache.intern
	prev, next int32  // slab slots; towards more / less recently used
	id         int
	score      float64
}

// scoreShard is one lock's worth of the score cache: a bounded exact-LRU map
// with no per-entry allocation. Entries live in slab, which grows
// geometrically up to cap+1 slots and is then recycled in place; slot 0 is
// the sentinel of a circular recency list threaded through the entries'
// int32 links (slab[0].next is the most, slab[0].prev the least recently
// used). index is an open-addressed table of slab slots (0 = empty) with
// linear probing at load ≤ 1/2, and backward-shift deletion so eviction
// leaves no tombstones. At capacity one cached score costs 32 B of slab plus
// 8 B of index.
type scoreShard struct {
	mu    sync.Mutex
	cap   int
	slab  []scoreEntry
	index []int32 // len is a power of two
	shift uint    // 64 - log2(len(index)): a hash's top bits pick the home slot
	// hits and misses are guarded by mu, which every lookup takes anyway.
	hits, misses uint64
}

// scoreIndexMin is the index size a shard starts with.
const scoreIndexMin = 64

func newScoreShard(capacity int) *scoreShard {
	sh := &scoreShard{cap: capacity, slab: make([]scoreEntry, 1, min(capacity+1, scoreIndexMin/2))}
	sh.resetIndex(scoreIndexMin)
	return sh
}

// scoreHash mixes a key into 64 bits whose top bits are used.
func scoreHash(pp uint32, id int) uint64 {
	h := uint64(id)*0x9E3779B97F4A7C15 + uint64(pp)*0xC2B2AE3D27D4EB4F
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
	i := sh.home(scoreHash(e.pp, e.id))
	for sh.index[i] != 0 {
		i = (i + 1) & mask
	}
	sh.index[i] = slot
}

// home returns the bucket a key hashing to h probes first.
func (sh *scoreShard) home(h uint64) uint64 { return h >> sh.shift }

// find returns the slab slot caching (pp, id), or 0, walking the key's probe
// run from bucket i: its home bucket, or a later one when the buckets before
// it are known to hold other keys.
func (sh *scoreShard) find(pp uint32, id int, i uint64) int32 {
	mask := uint64(len(sh.index) - 1)
	for i &= mask; ; i = (i + 1) & mask {
		slot := sh.index[i]
		if slot == 0 {
			return 0
		}
		if e := &sh.slab[slot]; e.id == id && e.pp == pp {
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
	i := sh.home(scoreHash(e.pp, e.id))
	for sh.index[i] != slot {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; sh.index[j] != 0; j = (j + 1) & mask {
		m := &sh.slab[sh.index[j]]
		home := sh.home(scoreHash(m.pp, m.id))
		// The entry at j may fill the hole at i unless its home bucket lies
		// cyclically in (i, j]: then the hole is not on its probe path.
		if (j-home)&mask >= (j-i)&mask {
			sh.index[i] = sh.index[j]
			i = j
		}
	}
	sh.index[i] = 0
}

// insert caches a key known to be absent as the most recently used entry,
// recycling the least recently used slot when the shard is full.
func (sh *scoreShard) insert(pp uint32, id int, score float64) {
	var slot int32
	if len(sh.slab) > sh.cap {
		slot = sh.slab[0].prev
		sh.unindex(slot)
		e := &sh.slab[slot]
		sh.slab[e.prev].next = 0
		sh.slab[0].prev = e.prev
	} else {
		if len(sh.slab) == cap(sh.slab) {
			// Grow by half, straight to the final size once that is within reach.
			n := cap(sh.slab) + cap(sh.slab)/2
			if n >= sh.cap {
				n = sh.cap + 1
			}
			grown := make([]scoreEntry, len(sh.slab), n)
			copy(grown, sh.slab)
			sh.slab = grown
		}
		slot = int32(len(sh.slab))
		sh.slab = append(sh.slab, scoreEntry{})
	}
	e := &sh.slab[slot]
	e.pp, e.id, e.score = pp, id, score
	sh.pushFront(slot)
	if 2*(len(sh.slab)-1) > len(sh.index) { // the sentinel is not indexed
		sh.resetIndex(2 * len(sh.index))
	} else {
		sh.place(slot)
	}
}

// findBatch is find for every probe listed in ord (indices into ids; hash[k]
// is the key hash of probe ord[k]), leaving each probe's slab slot, or 0, in
// slot[ord[k]]. The lookups are staged — every home bucket is read first,
// then every slab entry those buckets name — so the group's cache misses
// overlap instead of each probe waiting out its own two in turn. Only a probe
// whose home bucket holds a different key walks its run. Nothing here writes
// to the shard, so the answers are those of calling find probe by probe.
func (sh *scoreShard) findBatch(pp uint32, ids []int, ord []int32, hash []uint64, slot []int32) {
	index, slab := sh.index, sh.slab
	for k, i := range ord {
		slot[i] = index[sh.home(hash[k])]
	}
	for k, i := range ord {
		if s := slot[i]; s != 0 && (slab[s].id != ids[i] || slab[s].pp != pp) {
			slot[i] = sh.find(pp, ids[i], sh.home(hash[k])+1)
		}
	}
}

// scoreCache implements optimizer.ScoreCache as a sharded bounded LRU.
// Sharding is by blob ID so concurrent sessions scanning the same stream
// spread their lookups across locks. A batch is grouped by shard and each
// shard's lock taken once for its whole group; the grouping is stable, so a
// shard sees its keys in the order a one-at-a-time caller would have sent
// them, and its recency list, victims and counters come out the same. In
// disabled mode every lookup is counted as a miss and puts store nothing —
// that is how the benchmark measures the uncached evaluation count through
// identical code paths.
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

func newScoreCache(size, shards int, disabled bool) *scoreCache {
	if shards < 1 {
		shards = 1
	}
	if shards > size {
		shards = size
	}
	// Slab links are int32 and slot 0 is taken.
	perShard := min((size+shards-1)/shards, math.MaxInt32-1)
	c := &scoreCache{shards: make([]*scoreShard, shards), disabled: disabled, interned: map[*core.PP]uint32{}}
	for i := range c.shards {
		c.shards[i] = newScoreShard(perShard)
	}
	return c
}

// shardOf returns the index of the shard that owns a blob ID.
func (c *scoreCache) shardOf(blobID int) int {
	// Fibonacci hashing spreads the (often sequential) blob IDs.
	h := uint64(blobID) * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(len(c.shards)))
}

// probeGroups is the recycled scratch of one GetBatch or PutBatch call: the
// batch's probes grouped by shard.
type probeGroups struct {
	// start[g]:start[g+1] bounds shard g's group within order and hash; next
	// is the grouping pass's write cursor per shard.
	start, next []int32
	// order lists the probe indices group by group, each group in index order.
	order []int32
	// hash[k] is the key hash of probe order[k].
	hash []uint64
	// slot is indexed by probe: its shard while grouping, then (GetBatch) the
	// slab slot it resolved to, 0 for a miss.
	slot []int32
}

var probeGroupsPool = sync.Pool{New: func() any { return new(probeGroups) }}

func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// group returns the probes of ids grouped by shard with a stable counting
// sort, and their key hashes in that order.
func (c *scoreCache) group(pp uint32, ids []int) *probeGroups {
	p := probeGroupsPool.Get().(*probeGroups)
	n, ns := len(ids), len(c.shards)
	p.start, p.next = resized(p.start, ns+1), resized(p.next, ns)
	p.order, p.hash, p.slot = resized(p.order, n), resized(p.hash, n), resized(p.slot, n)
	clear(p.start)
	for i, id := range ids {
		g := c.shardOf(id)
		p.slot[i] = int32(g)
		p.start[g+1]++
	}
	for g := 0; g < ns; g++ {
		p.next[g] = p.start[g]
		p.start[g+1] += p.start[g]
	}
	for i, id := range ids {
		k := p.next[p.slot[i]]
		p.next[p.slot[i]]++
		p.order[k], p.hash[k] = int32(i), scoreHash(pp, id)
	}
	return p
}

// GetBatch implements optimizer.ScoreCache.
func (c *scoreCache) GetBatch(key *core.PP, ids []int, scores []float64, miss []int) []int {
	pp := c.intern(key)
	p := c.group(pp, ids)
	for g, sh := range c.shards {
		ord := p.order[p.start[g]:p.start[g+1]]
		if len(ord) == 0 {
			continue
		}
		sh.mu.Lock()
		if c.disabled {
			for _, i := range ord {
				p.slot[i] = 0
			}
		} else {
			sh.findBatch(pp, ids, ord, p.hash[p.start[g]:p.start[g+1]], p.slot)
		}
		// Counting and touching go probe by probe in index order: that is
		// what keeps the recency list exact.
		for _, i := range ord {
			slot := p.slot[i]
			if slot == 0 {
				sh.misses++
				continue
			}
			sh.hits++
			sh.touch(slot)
			scores[i] = sh.slab[slot].score
		}
		sh.mu.Unlock()
	}
	for i, slot := range p.slot {
		if slot == 0 {
			miss = append(miss, i)
		}
	}
	probeGroupsPool.Put(p)
	return miss
}

// PutBatch implements optimizer.ScoreCache. Unlike lookups, puts change the
// index as they go (an insert may evict the key a later put updates), so
// within a shard they run one by one.
func (c *scoreCache) PutBatch(key *core.PP, ids []int, scores []float64) {
	if c.disabled {
		return
	}
	pp := c.intern(key)
	p := c.group(pp, ids)
	for g, sh := range c.shards {
		lo, hi := p.start[g], p.start[g+1]
		if lo == hi {
			continue
		}
		sh.mu.Lock()
		for k := lo; k < hi; k++ {
			i := p.order[k]
			if slot := sh.find(pp, ids[i], sh.home(p.hash[k])); slot != 0 {
				sh.slab[slot].score = scores[i]
				sh.touch(slot)
			} else {
				sh.insert(pp, ids[i], scores[i])
			}
		}
		sh.mu.Unlock()
	}
	probeGroupsPool.Put(p)
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
		entries += len(sh.slab) - 1
		hits += sh.hits
		misses += sh.misses
		sh.mu.Unlock()
	}
	return entries, hits, misses
}
