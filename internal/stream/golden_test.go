package stream

// Satellite battery: backfill-vs-live equivalence. Under frozen PP state,
// running a standing query segment-by-segment and concatenating the deltas
// must reproduce — byte for byte, in blob-ID order — the one-shot batch query
// over the same corpus, at every segmentation and worker count.

import (
	"fmt"
	"math"
	"testing"
)

// goldenSplits covers the segmentation shapes that break naive streaming:
// single segment, even halves, a 1-blob segment, and empty (heartbeat)
// segments at the front and middle.
var goldenSplits = [][]int{
	nil,
	{150},
	{60, 61, 200},
	{0, 100, 100, 250},
}

// goldenFronts are the front doors the stream is served through: the single
// server (shards = 0), then Coordinators at 2 and 4 shards × 1–2 replicas,
// each replica admitting 4 of a segment's sessions at once.
var goldenFronts = []struct{ shards, replicas int }{{0, 0}, {2, 1}, {2, 2}, {4, 1}, {4, 2}}

func TestBackfillVsLiveGolden(t *testing.T) {
	// The rendered results must also agree across worker counts and front
	// doors; collect every run's rendering per query and compare globally at
	// the end.
	global := map[string]map[string]string{} // query → run label → rendering
	for _, front := range goldenFronts {
		for _, workers := range []int{1, 4} {
			for si, cuts := range goldenSplits {
				name := fmt.Sprintf("workers=%d/split=%d", workers, si)
				if front.shards > 0 {
					name = fmt.Sprintf("shards=%d/replicas=%d/%s", front.shards, front.replicas, name)
				}
				t.Run(name, func(t *testing.T) {
					all := miniBlobs(300, 11)
					var st *miniStack
					if front.shards > 0 {
						st = newMiniShardedStack(t, workers, front.shards, front.replicas, 4)
					} else {
						st = newMiniStack(t, workers, nil, nil)
					}
					st.register(t, miniStandingQueries...)
					var deltas [][]Delta
					for _, seg := range splitSegments(all, cuts) {
						ds, err := st.ing.Ingest(seg)
						if err != nil {
							t.Fatal(err)
						}
						deltas = append(deltas, ds)
					}
					for _, q := range miniStandingQueries {
						batch, err := st.ing.BatchQuery(q.ID)
						if err != nil {
							t.Fatal(err)
						}
						want := renderRows(batch)
						got := renderLive(deltas, q.ID)
						if got != want {
							t.Errorf("%s live != batch\n live: %s\nbatch: %s", q.ID, got, want)
						}
						// Virtual cluster cost is charged per row, so the split
						// changes only float association, never the total.
						lc, bc := liveCluster(deltas, q.ID), batch.Result.ClusterTime
						if math.Abs(lc-bc) > 1e-6*math.Max(1, bc) {
							t.Errorf("%s live cluster %v != batch %v", q.ID, lc, bc)
						}
						if global[q.ID] == nil {
							global[q.ID] = map[string]string{}
						}
						global[q.ID][name] = want
					}
				})
			}
		}
	}
	for id, runs := range global {
		var ref string
		for _, r := range runs {
			ref = r
			break
		}
		for name, r := range runs {
			if r != ref {
				t.Errorf("%s: run %s rendered differently from other runs", id, name)
			}
		}
	}
}
