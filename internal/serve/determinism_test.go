package serve

import (
	"testing"

	"probpred/internal/optimizer"
)

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
