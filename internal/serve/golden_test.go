package serve_test

// The serve goldens as fixed draws of the composition oracle
// (internal/testkit/oracle): each row serves the kit's workload one way and
// holds every response — rows, order, ledger and cost — to the serial,
// uncached, unsharded reference. CI runs them under -race, so the sharing
// across workers, sessions and shard legs is also checked for data races.

import (
	"fmt"
	"testing"

	"probpred/internal/serve"
	"probpred/internal/testkit"
	"probpred/internal/testkit/oracle"
)

// Engine workers only change how the simulator uses real cores and the
// score cache only the real CPU spent; neither may leak into results or
// accounting.
func TestServeDeterminismAcrossWorkersAndCache(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, noCache := range []bool{false, true} {
			oracle.Check(t, oracle.Draw{Blobs: 2000, Seed: 7, Queries: testkit.Workload,
				Workers: workers, NoCache: noCache, MaxConcurrent: 4})
		}
	}
}

// Every shard count × routing policy × worker count serves the unsharded
// results, and every leg of every session runs.
func TestShardedDeterminism(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		for _, routing := range []serve.RoutingPolicy{serve.RouteRoundRobin, serve.RouteLeastLoaded, serve.RoutePlanAffinity} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("shards=%d/%s/workers=%d", shards, routing, workers), func(t *testing.T) {
					oracle.Check(t, oracle.Draw{Blobs: 60, Seed: 7, Queries: testkit.Workload,
						Shards: shards, Replicas: 2, Routing: routing, Workers: workers, MaxConcurrent: 4})
				})
			}
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

// Adaptive serving under drift: concurrent sessions share one cached plan
// (one predicate, two spellings) while the adapt controller demotes it
// mid-run and promotes the re-ordered filter, and every served row set stays
// the reference's. Which sessions start on the promoted plan is
// schedule-dependent, so adapt's relaxation leaves cost uncompared.
func TestServeAdaptiveDeterminismUnderConcurrentDemotion(t *testing.T) {
	var workload []testkit.Query
	for i, pred := range []string{"t=SUV & c=red", "c=red & t=SUV", "t=SUV & c=red", "c=red & t=SUV", "t=SUV & c=red", "c=red & t=SUV"} {
		workload = append(workload, testkit.Query{ID: fmt.Sprintf("Q%d", i+1), Pred: pred})
	}
	for _, conc := range []int{1, 4} {
		st := oracle.Check(t, oracle.Draw{Blobs: 2000, Drift: true, Queries: workload, Adapt: true, MaxConcurrent: conc})
		if st.PlanDemotions == 0 || st.PlanPromotions == 0 {
			t.Errorf("concurrency %d: drift did not swap the cached plan: demotions=%d promotions=%d",
				conc, st.PlanDemotions, st.PlanPromotions)
		}
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
// through a 2×2 coordinator with four engine workers — joins across the
// three telemetry sinks by its trace ID (one session record plus one per
// leg in the query log, one span tree from the coordinator session through
// the leg sessions to run and operator spans), and the p99 service-time
// exemplar names one of them.
func TestTraceJoinEndToEnd(t *testing.T) {
	for _, stream := range []bool{false, true} {
		oracle.Check(t, oracle.Draw{Blobs: 60, Seed: 7, Queries: testkit.Workload, Stream: stream, Cuts: []int{30},
			Shards: 2, Replicas: 2, Workers: 4, MaxConcurrent: 4, Observe: true})
	}
}

// Tracing, the query log and metrics change no served byte, unsharded or
// sharded.
func TestObservabilityDoesNotChangeResults(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			for _, shards := range []int{0, 2} {
				oracle.Check(t, oracle.Draw{Blobs: 60, Seed: 7, Queries: testkit.Workload,
					Workers: workers, Shards: shards, Replicas: 2, MaxConcurrent: 4, Observe: true})
			}
		})
	}
}
