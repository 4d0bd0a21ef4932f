package serve

import (
	"hash/fnv"
	"sync/atomic"
)

// Routing decides which replica of each shard serves one leg.
// Because PP scores are pure and both caches are transparent, every replica
// of a shard returns byte-identical results — routing never affects outputs,
// only wall-clock latency and cache warmth. That is what makes the policy
// pluggable: it is a pure performance knob.

// RoutingPolicy names a built-in routing policy.
type RoutingPolicy string

const (
	// RouteRoundRobin rotates legs through a shard's replicas in arrival
	// order — the oblivious baseline.
	RouteRoundRobin RoutingPolicy = "round-robin"
	// RouteLeastLoaded sends each leg to the replica with the fewest queued
	// plus active legs (its live load counters), ties to the lowest index.
	RouteLeastLoaded RoutingPolicy = "least-loaded"
	// RoutePlanAffinity hashes the session's canonical plan key, so repeat
	// predicates land on the replica whose plan and score caches are already
	// warm for them.
	RoutePlanAffinity RoutingPolicy = "plan-affinity"
)

func (p RoutingPolicy) valid() bool {
	switch p {
	case RouteRoundRobin, RouteLeastLoaded, RoutePlanAffinity:
		return true
	}
	return false
}

// router picks the replica of one shard that serves one leg. Pick is called
// concurrently by sessions and must be safe for concurrent use. key is the
// session's canonical plan key (optimizer.PlanKey), replicas the shard's
// replica set in index order; the returned index is in [0, len(replicas)).
type router interface {
	// Pick selects the serving replica for one leg of shard.
	Pick(shard int, key string, replicas []*replica) int
}

// newRouter builds the built-in router for a policy over shards shards.
// policy must be valid (Config.fill checked it).
func newRouter(policy RoutingPolicy, shards int) router {
	switch policy {
	case RouteLeastLoaded:
		return leastLoadedRouter{}
	case RoutePlanAffinity:
		return planAffinityRouter{}
	default:
		return &roundRobinRouter{next: make([]atomic.Uint64, shards)}
	}
}

// roundRobinRouter keeps one rotation counter per shard, so each shard's
// replicas are cycled independently of how other shards route.
type roundRobinRouter struct{ next []atomic.Uint64 }

func (r *roundRobinRouter) Pick(shard int, _ string, replicas []*replica) int {
	return int((r.next[shard].Add(1) - 1) % uint64(len(replicas)))
}

// leastLoadedRouter reads each replica's live queued+active counters at pick
// time. The snapshot is racy by design (load moves while we read), which is
// fine: a slightly stale pick only costs wall-clock, never correctness.
type leastLoadedRouter struct{}

func (leastLoadedRouter) Pick(_ int, _ string, replicas []*replica) int {
	best, bestLoad := 0, int64(1<<62)
	for i, r := range replicas {
		if load := r.queued.Load() + r.active.Load(); load < bestLoad {
			best, bestLoad = i, load
		}
	}
	return best
}

// planAffinityRouter consistently hashes the canonical plan key, so the
// sessions that repeat a predicate all hit the one replica that has planned
// it (warm plan cache) and filled its PPs' score columns, instead of
// spreading — and re-paying — that work across every replica.
type planAffinityRouter struct{}

func (planAffinityRouter) Pick(_ int, key string, replicas []*replica) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(len(replicas)))
}
