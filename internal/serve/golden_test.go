package serve_test

// The serve goldens as fixed draws of the composition oracle
// (internal/testkit/oracle): each row serves the kit's workload one way and
// holds every response — rows, order, ledger and cost — to the serial,
// uncached, unsharded reference. CI runs them under -race, so the sharing
// across sessions and shard legs is also checked for data races. A name's
// workers=N segment is how many sessions each server admits at once
// (MaxConcurrent); the engine runs each on its own goroutine.

import (
	"fmt"
	"testing"

	"probpred/internal/testkit"
	"probpred/internal/testkit/oracle"
)

// The score cache only changes the real CPU spent; it may not leak into
// results or accounting.
func TestServeDeterminismAcrossCache(t *testing.T) {
	for _, noCache := range []bool{false, true} {
		oracle.Check(t, oracle.Draw{Blobs: 2000, Seed: 7, Queries: testkit.Workload,
			NoCache: noCache, MaxConcurrent: 4})
	}
}

// Every shard count, one session at a time or four, serves the unsharded
// results, and every leg of every session runs. The middle name segment is
// the routing every shard's legs take.
func TestShardedDeterminism(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		for _, sessions := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/round-robin/workers=%d", shards, sessions), func(t *testing.T) {
				oracle.Check(t, oracle.Draw{Blobs: 60, Seed: 7, Queries: testkit.Workload,
					Shards: shards, Replicas: 2, MaxConcurrent: sessions})
			})
		}
	}
}

// The score cache is transparent, and on an overlapping workload it is
// also useful: the same lookups, strictly fewer evaluations.
func TestScoreCacheTransparent(t *testing.T) {
	draw := oracle.Draw{Blobs: 1500, Seed: 7, Queries: testkit.Workload, MaxConcurrent: 1}
	cs := oracle.Check(t, draw)
	draw.NoCache = true
	us := oracle.Check(t, draw)
	if cs.ScoreHits == 0 {
		t.Error("enabled score cache recorded no hits on an overlapping workload")
	}
	if us.ScoreHits != 0 || us.ScoreEntries != 0 {
		t.Errorf("disabled score cache recorded %d hits and stored %d entries, want 0", us.ScoreHits, us.ScoreEntries)
	}
	if cs.ScoreHits+cs.ScoreMisses != us.ScoreMisses {
		t.Errorf("lookup totals diverged: cached %d+%d vs uncached %d", cs.ScoreHits, cs.ScoreMisses, us.ScoreMisses)
	}
	if cs.ScoreMisses >= us.ScoreMisses {
		t.Errorf("caching did not reduce evaluations: %d vs %d", cs.ScoreMisses, us.ScoreMisses)
	}
}

// Replay returns responses in workload order, each one the reference's,
// whatever the dispatch concurrency.
func TestReplayOrderIndependence(t *testing.T) {
	for _, conc := range []int{1, 3, 8} {
		oracle.Check(t, oracle.Draw{Blobs: 1500, Seed: 7, Queries: testkit.Workload, MaxConcurrent: conc})
	}
}

// A request carrying its own segment (Request.Blobs, the streaming path) is
// split contiguously across the legs like the corpus is, so the scatter
// serves each row once at every shard and replica count — including a
// segment shorter than the shard count (empty legs).
func TestShardedExplicitBlobsSplitAcrossLegs(t *testing.T) {
	for shards := 1; shards <= 4; shards++ {
		for replicas := 1; replicas <= 2; replicas++ {
			oracle.Check(t, oracle.Draw{Blobs: 303, Seed: 21, Queries: testkit.Workload, Stream: true, Cuts: []int{300},
				Shards: shards, Replicas: replicas})
		}
	}
}

// The observability acceptance gate: every session — replayed or streamed,
// through a 2×2 server admitting four sessions at once — joins across the
// three telemetry sinks by its trace ID (one record in the query log, one
// span tree from the session span through the leg spans to run and
// operator spans), and the p99 service-time exemplar names one of them.
func TestTraceJoinEndToEnd(t *testing.T) {
	for _, stream := range []bool{false, true} {
		oracle.Check(t, oracle.Draw{Blobs: 60, Seed: 7, Queries: testkit.Workload, Stream: stream, Cuts: []int{30},
			Shards: 2, Replicas: 2, MaxConcurrent: 4, Observe: true})
	}
}

// Tracing, the query log and metrics change no served byte, unsharded or
// sharded, one session at a time or four.
func TestObservabilityDoesNotChangeResults(t *testing.T) {
	for _, sessions := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", sessions), func(t *testing.T) {
			for _, shards := range []int{0, 2} {
				oracle.Check(t, oracle.Draw{Blobs: 60, Seed: 7, Queries: testkit.Workload,
					Shards: shards, Replicas: 2, MaxConcurrent: sessions, Observe: true})
			}
		})
	}
}
