package serve

import (
	"fmt"
	"sync"
	"testing"

	"probpred/internal/core"
	"probpred/internal/optimizer"
)

func entryFor(key string, version uint64) *planEntry {
	return &planEntry{key: key, version: version, dec: &optimizer.Decision{}}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	c := newPlanCache(2, nil)
	c.put(entryFor("a", 0))
	c.put(entryFor("b", 0))
	if _, ok := c.get("a", 0); !ok { // touch a: b becomes LRU
		t.Fatal("a missing before eviction")
	}
	c.put(entryFor("c", 0))
	if _, ok := c.get("b", 0); ok {
		t.Error("b survived eviction; LRU order not respected")
	}
	if _, ok := c.get("a", 0); !ok {
		t.Error("recently used a was evicted")
	}
	if _, ok := c.get("c", 0); !ok {
		t.Error("newest entry c missing")
	}
	if c.len() != 2 {
		t.Errorf("cache holds %d entries, cap is 2", c.len())
	}
}

func TestPlanCacheStaleVersion(t *testing.T) {
	c := newPlanCache(4, nil)
	c.put(entryFor("a", 1))
	if _, ok := c.get("a", 2); ok {
		t.Fatal("stale entry served")
	}
	if c.invalidations.Load() != 1 {
		t.Errorf("invalidations = %d, want 1", c.invalidations.Load())
	}
	if c.len() != 0 {
		t.Errorf("stale entry still cached")
	}
}

func TestPlanCacheReplaceSameKey(t *testing.T) {
	c := newPlanCache(2, nil)
	c.put(entryFor("a", 1))
	c.put(entryFor("a", 2))
	if c.len() != 1 {
		t.Fatalf("duplicate key grew the cache to %d entries", c.len())
	}
	e, ok := c.get("a", 2)
	if !ok || e.version != 2 {
		t.Fatal("replacement entry not served")
	}
}

// getOne and putOne are the scalar calls: a batch of one.
func getOne(c *scoreCache, pp *core.PP, id int) (float64, bool) {
	var score [1]float64
	miss := c.GetBatch(pp, []int{id}, score[:], nil)
	return score[0], len(miss) == 0
}

func putOne(c *scoreCache, pp *core.PP, id int, score float64) {
	c.PutBatch(pp, []int{id}, []float64{score})
}

// pagesOf returns the number of cached pages across all shards.
func pagesOf(c *scoreCache) int {
	n := 0
	for _, sh := range c.shards {
		sh.mu.Lock()
		n += len(sh.slab) - 1
		sh.mu.Unlock()
	}
	return n
}

// TestScoreCacheBoundsAndEviction puts 100 pages of scores one at a time into
// a cache of 8 pages over 2 shards: each shard must end holding exactly its 4
// most recently written pages, full, with every resident score correct.
func TestScoreCacheBoundsAndEviction(t *testing.T) {
	pp := &core.PP{}
	c := newScoreCache(8, 2, false)
	const n = 100 * pageSize
	for i := 0; i < n; i++ {
		putOne(c, pp, i, float64(i))
	}
	if p, s := pagesOf(c), c.Len(); p != 8 || s != 8*pageSize {
		t.Fatalf("cache holds %d pages, %d scores; want the bound, 8 full pages", p, s)
	}
	hot := 0
	for i := 0; i < n; i++ {
		if v, ok := getOne(c, pp, i); ok {
			if v != float64(i) {
				t.Fatalf("key %d returned %v, want %v", i, v, float64(i))
			}
			hot++
		}
	}
	if hot != 8*pageSize {
		t.Fatalf("%d scores resident, want %d", hot, 8*pageSize)
	}
	if _, ok := getOne(c, pp, n-1); !ok {
		t.Fatal("the last score written was evicted")
	}
	if _, ok := getOne(c, pp, 0); ok {
		t.Fatal("the first page written survived 92 newer ones")
	}
}

// TestScoreCacheKeysByPPIdentity: two PPs scoring the same blob, with room
// for both pages, cache separately, and a page of one PP answers nothing for
// the other.
func TestScoreCacheKeysByPPIdentity(t *testing.T) {
	a, b := &core.PP{}, &core.PP{}
	c := newScoreCache(16, 2, false)
	putOne(c, a, 1, 0.5)
	putOne(c, b, 1, -0.5) // same blob, different PP (e.g. negation-derived)
	putOne(c, a, 2, 0.25) // same page as blob 1
	if v, ok := getOne(c, a, 1); !ok || v != 0.5 {
		t.Fatalf("PP a: got %v,%v want 0.5,true", v, ok)
	}
	if v, ok := getOne(c, b, 1); !ok || v != -0.5 {
		t.Fatalf("PP b: got %v,%v want -0.5,true", v, ok)
	}
	if v, ok := getOne(c, b, 2); ok {
		t.Fatalf("PP b answered %v for a blob only PP a scored", v)
	}
	if p, s := pagesOf(c), c.Len(); p != 2 || s != 3 {
		t.Fatalf("cache holds %d pages, %d scores; want 2, 3", p, s)
	}
}

func TestScoreCacheDisabledCountsMisses(t *testing.T) {
	pp := &core.PP{}
	c := newScoreCache(16, 2, true)
	putOne(c, pp, 1, 0.5)
	if _, ok := getOne(c, pp, 1); ok {
		t.Fatal("disabled cache returned a value")
	}
	if c.Len() != 0 {
		t.Fatal("disabled cache stored entries")
	}
	if _, hits, misses := c.stats(); misses != 1 || hits != 0 {
		t.Fatalf("disabled cache counted %d hits / %d misses, want 0/1", hits, misses)
	}
}

// TestScoreCacheConcurrent hammers one cache of 8 pages from many goroutines,
// each sending batches over 512 pages that move from shard to shard; run with
// -race this checks the shard locking, one lock held at a time, under
// constant eviction.
func TestScoreCacheConcurrent(t *testing.T) {
	pp := &core.PP{}
	c := newScoreCache(8, 8, false)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			const batch = 160
			ids, scores := make([]int, batch), make([]float64, batch)
			var miss []int
			for i := 0; i < 8000; i += batch {
				for k := range ids {
					// A stride of 1.5 pages: a batch crosses some 15 shard runs.
					ids[k] = (w*131 + 7*i + 97*k) % (512 * pageSize)
				}
				miss = c.GetBatch(pp, ids, scores, miss[:0])
				for k, m := 0, 0; k < batch; k++ {
					if m < len(miss) && miss[m] == k {
						m++
					} else if scores[k] != float64(ids[k]) {
						panic(fmt.Sprintf("key %d returned %v", ids[k], scores[k]))
					}
					scores[k] = float64(ids[k])
				}
				c.PutBatch(pp, ids, scores)
			}
		}(w)
	}
	wg.Wait()
	if p, s := pagesOf(c), c.Len(); p > 8 || s > 8*pageSize {
		t.Fatalf("cache holds %d pages, %d scores; bound is 8 pages", p, s)
	}
}
