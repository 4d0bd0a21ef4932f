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

func TestScoreCacheBoundsAndEviction(t *testing.T) {
	pp := &core.PP{}
	c := newScoreCache(8, 2, false)
	for i := 0; i < 100; i++ {
		putOne(c, pp, i, float64(i))
	}
	if n := c.Len(); n > 8 {
		t.Fatalf("cache holds %d entries, bound is 8", n)
	}
	// Recently inserted keys on each shard should still be resident.
	hot := 0
	for i := 0; i < 100; i++ {
		if v, ok := getOne(c, pp, i); ok {
			if v != float64(i) {
				t.Fatalf("key %d returned %v, want %v", i, v, float64(i))
			}
			hot++
		}
	}
	if hot == 0 {
		t.Fatal("nothing resident after inserts")
	}
}

func TestScoreCacheKeysByPPIdentity(t *testing.T) {
	a, b := &core.PP{}, &core.PP{}
	c := newScoreCache(16, 2, false)
	putOne(c, a, 1, 0.5)
	putOne(c, b, 1, -0.5) // same blob, different PP (e.g. negation-derived)
	if v, ok := getOne(c, a, 1); !ok || v != 0.5 {
		t.Fatalf("PP a: got %v,%v want 0.5,true", v, ok)
	}
	if v, ok := getOne(c, b, 1); !ok || v != -0.5 {
		t.Fatalf("PP b: got %v,%v want -0.5,true", v, ok)
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

// TestScoreCacheConcurrent hammers one cache from many goroutines, each
// sending batches that span every shard; run with -race this checks the
// shard locking and that the pooled probe scratch is never shared.
func TestScoreCacheConcurrent(t *testing.T) {
	pp := &core.PP{}
	c := newScoreCache(256, 8, false)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			const batch = 40
			ids, scores := make([]int, batch), make([]float64, batch)
			var miss []int
			for i := 0; i < 2000; i += batch {
				for k := range ids {
					ids[k] = (w*131 + i + k) % 512
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
	if n := c.Len(); n > 256 {
		t.Fatalf("cache holds %d entries, bound is 256", n)
	}
}
