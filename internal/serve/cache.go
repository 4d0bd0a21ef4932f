package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

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
//   - optimizer.ScoreColumns memoizes per-(PP, blob) classifier scores
//     across sessions, one column of 64-score pages per PP, read without a
//     lock. Scores are pure functions of PP and blob, so a stored score is
//     bit-identical to a fresh one — the store changes real CPU spent, never
//     results or virtual costs.

// Cache sizes. The score store spends at most 40 MB, the budget of the 2^20
// scores at 40 B each it held when it kept one entry per score: 69 905 pages
// at optimizer.ScorePageBytes each, allocated as it fills. That is 4.5 M
// scores when every page is full.
const (
	planCacheSize   = 128
	scoreCachePages = 40 << 20 / optimizer.ScorePageBytes
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
