package serve

import (
	"testing"

	"probpred/internal/core"
	"probpred/internal/optimizer"
)

// entryFor is a plan for key searched at corpus version, which consulted
// clause key alone.
func entryFor(key string, version uint64) *planEntry {
	return &planEntry{key: key, version: version, deps: []string{key}, dec: &optimizer.Decision{}}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	c := newPlanCache(2, optimizer.NewCorpus())
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
	corpus := optimizer.NewCorpus()
	c := newPlanCache(4, corpus)
	c.put(entryFor("a", 1))
	// Versions 1 and 2 both retrain the clause the entry consulted.
	corpus.Add(&core.PP{Clause: "a"})
	corpus.Add(&core.PP{Clause: "a"})
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
	c := newPlanCache(2, optimizer.NewCorpus())
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

// TestScoreCacheDisabledCountsMisses: a server with the score cache
// disabled stores nothing and counts every lookup as a miss, so serving the
// same workload twice looks up — and evaluates — exactly as much the second
// time as the first.
func TestScoreCacheDisabledCountsMisses(t *testing.T) {
	st := newMiniStack(t, 600, func(c *Config) { c.DisableScoreCache = true })
	var misses [2]uint64
	for round := range misses {
		if _, err := st.srv.Replay(miniWorkload, 2); err != nil {
			t.Fatal(err)
		}
		s := st.srv.Stats()
		if s.ScoreHits != 0 || s.ScoreEntries != 0 {
			t.Fatalf("round %d: disabled cache counted %d hits and stored %d scores, want 0", round, s.ScoreHits, s.ScoreEntries)
		}
		misses[round] = s.ScoreMisses
	}
	if misses[0] == 0 || misses[1] != 2*misses[0] {
		t.Fatalf("misses after one round %d, after two %d; want twice the first, non-zero", misses[0], misses[1])
	}
}
