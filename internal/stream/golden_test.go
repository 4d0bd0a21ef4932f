package stream_test

// The stream goldens as fixed draws of the composition oracle
// (internal/testkit/oracle). Under frozen PP state every segment's delta —
// rows, order, ledger, cost and accuracy audit — equals the serial,
// uncached, unsharded reference run over that segment; the concatenated
// deltas equal the reference over the whole corpus; and the backfill
// (BatchQuery) equals it too.

import (
	"fmt"
	"testing"

	"probpred/internal/mathx"
	"probpred/internal/testkit"
	"probpred/internal/testkit/oracle"
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
// server (shards = 0), then sharded servers at 2 and 4 shards × 1–2 replicas.
var goldenFronts = []struct{ shards, replicas int }{{0, 0}, {2, 1}, {2, 2}, {4, 1}, {4, 2}}

// A name's workers=N segment is how many of a segment's sessions each
// replica admits at once (MaxConcurrent); the engine runs each on its own
// goroutine.
func TestBackfillVsLiveGolden(t *testing.T) {
	for _, front := range goldenFronts {
		for _, sessions := range []int{1, 4} {
			for si, cuts := range goldenSplits {
				name := fmt.Sprintf("workers=%d/split=%d", sessions, si)
				if front.shards > 0 {
					name = fmt.Sprintf("shards=%d/replicas=%d/%s", front.shards, front.replicas, name)
				}
				t.Run(name, func(t *testing.T) {
					oracle.Check(t, oracle.Draw{Blobs: 300, Seed: 11, Queries: testkit.Standing, Stream: true, Cuts: cuts,
						Shards: front.shards, Replicas: front.replicas, MaxConcurrent: sessions})
				})
			}
		}
	}
}

// Ingest runs a segment's standing queries side by side under the server's
// admission bound; at every width the deltas are the one-at-a-time ones.
func TestIngestFanOutByteIdentical(t *testing.T) {
	for _, mc := range []int{1, 2, 8} {
		oracle.Check(t, oracle.Draw{Blobs: 300, Seed: 19, Queries: testkit.Standing, Stream: true,
			Cuts: []int{0, 90, 91, 200}, MaxConcurrent: mc})
	}
}

// Every segment emits one delta per standing query, in registration order;
// each holds exactly the reference's rows — true matches only, in blob-ID
// order — and the ingestor counts every segment and delta.
func TestIngestDeltas(t *testing.T) {
	oracle.Check(t, oracle.Draw{Blobs: 300, Seed: 3, Queries: testkit.Standing, Stream: true, Cuts: []int{120, 200}})
}

// For any segmentation of a fixed corpus — random cut points, including
// empty segments — the live deltas equal the reference.
func TestRandomSegmentationProperty(t *testing.T) {
	rng := mathx.NewRNG(99)
	for trial := 0; trial < 20; trial++ {
		// Each boundary independently, plus an occasional duplicate (an
		// empty segment).
		var cuts []int
		for i := 1; i < 240; i++ {
			if rng.Float64() < 0.03 {
				cuts = append(cuts, i)
				if rng.Float64() < 0.2 {
					cuts = append(cuts, i)
				}
			}
		}
		t.Run(fmt.Sprintf("trial=%d/segments=%d", trial, len(cuts)+1), func(t *testing.T) {
			oracle.Check(t, oracle.Draw{Blobs: 240, Seed: 13, Queries: testkit.Standing, Stream: true, Cuts: cuts})
		})
	}
}
