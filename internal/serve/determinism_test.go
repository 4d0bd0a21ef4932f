package serve

import (
	"sync"
	"testing"

	"probpred/internal/optimizer"
)

// The plan cache itself survives demote/promote/get storms: entries stay
// immutable (readers never observe a half-written entry) and the population
// stays bounded. Run under -race this is the cache's concurrency contract.
func TestPlanCacheConcurrentDemotePromote(t *testing.T) {
	st := newMiniStack(t, 200, nil)
	if _, err := st.srv.Replay(miniWorkload[:4], 2); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, 4)
	for _, q := range miniWorkload[:4] {
		resp, err := st.srv.Replay([]WorkloadQuery{q}, 1)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, resp[0].PlanKey)
	}
	version, plans := st.corpus.Version(), st.srv.only().plans
	donors := make(map[string]*planEntry, len(keys))
	for _, k := range keys {
		e, ok := plans.get(k, version)
		if !ok {
			t.Fatalf("key %q not cached", k)
		}
		donors[k] = e
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keys[(g+i)%len(keys)]
				switch g % 3 {
				case 0:
					plans.demote(k)
				case 1:
					plans.promote(donors[k], donors[k].filter)
				default:
					if e, ok := plans.get(k, version); ok {
						if e.key != k || e.dec == nil {
							t.Errorf("torn entry for %q", k)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := plans.len(); n > len(miniWorkload) {
		t.Fatalf("cache population %d exceeds workload plans", n)
	}
	if plans.demotions.Load() == 0 || plans.promotions.Load() == 0 {
		t.Fatal("counters did not move")
	}
	// A demoted key that adapt then promotes resolves from the cache again.
	for _, k := range keys {
		plans.demote(k)
		plans.promote(donors[k], donors[k].filter)
		if _, ok := plans.get(k, version); !ok {
			t.Errorf("promoted plan %q missing from cache", k)
		}
	}
}

// TestScoreCacheEvictionKeepsResults: a score cache far too small for the
// stream (constant eviction pressure) still serves identical results.
func TestScoreCacheEvictionKeepsResults(t *testing.T) {
	full := newMiniStack(t, 1500, nil)
	tiny := newMiniStack(t, 1500, nil)
	tiny.srv.only().scores = optimizer.NewScoreColumns(8, false)
	rf, err := full.srv.Replay(miniWorkload, 2)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := tiny.srv.Replay(miniWorkload, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := renderResponses(rf), renderResponses(rt); a != b {
		t.Fatalf("tiny score cache diverged:\n%s\nvs\n%s", a, b)
	}
	if s := tiny.srv.Stats().ScoreEntries; s > 8*64 {
		t.Fatalf("tiny cache holds %d scores; bound is 8 pages of 64", s)
	}
}
