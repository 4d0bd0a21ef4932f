package serve

// Test harness: the mini traffic fixture of internal/testkit wired into a
// Server (newMiniStack) or a Coordinator (newMiniCoordinator). Everything is
// seeded and deterministic.

import (
	"strings"
	"testing"

	"probpred/internal/blob"
	"probpred/internal/engine"
	"probpred/internal/optimizer"
	"probpred/internal/testkit"
)

// miniConfig is the fixture's server template over a fresh PP corpus, bound
// to blobs.
func miniConfig(t *testing.T, blobs []blob.Blob) (Config, *optimizer.Corpus) {
	t.Helper()
	corpus := optimizer.NewCorpus()
	for _, pp := range testkit.PPs(t, testkit.Blobs(400, 8)) {
		corpus.Add(pp)
	}
	return Config{
		Optimizer: optimizer.New(corpus),
		Builder:   BindCorpus(testkit.Builder{}, blobs),
		Accuracy:  0.95,
		Domains:   testkit.Domains(),
		Exec:      engine.Config{NoStageOverhead: true},
	}, corpus
}

// miniStack is one fully wired serving fixture.
type miniStack struct {
	blobs  []blob.Blob
	corpus *optimizer.Corpus
	srv    *Server
}

// newMiniStack builds a seeded corpus + server. mutate adjusts the config
// before New (nil for defaults).
func newMiniStack(t *testing.T, nBlobs int, mutate func(*Config)) *miniStack {
	t.Helper()
	blobs := testkit.Blobs(nBlobs, 7)
	cfg, corpus := miniConfig(t, blobs)
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &miniStack{blobs: blobs, corpus: corpus, srv: srv}
}

// newMiniCoordinator wires a Coordinator over the same fixture. mutate
// adjusts the sharded config before NewSharded (nil for defaults).
func newMiniCoordinator(t *testing.T, nBlobs, shards, replicas int, routing RoutingPolicy, mutate func(*ShardedConfig)) *Coordinator {
	t.Helper()
	blobs := testkit.Blobs(nBlobs, 7)
	base, _ := miniConfig(t, nil)
	base.Routing = routing
	cfg := ShardedConfig{Base: base, Shards: shards, Replicas: replicas, Corpus: blobs, Builder: testkit.Builder{}}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// renderResponses renders responses one testkit.RenderResult line each.
func renderResponses(resps []*Response) string {
	var sb strings.Builder
	for _, r := range resps {
		if r == nil {
			sb.WriteString("<nil>\n")
			continue
		}
		sb.WriteString(testkit.RenderResult(r.ID, r.Result))
	}
	return sb.String()
}

// miniWorkload is testkit.Workload as a replayable workload.
var miniWorkload = func() (w []WorkloadQuery) {
	for _, q := range testkit.Workload {
		w = append(w, WorkloadQuery(q))
	}
	return w
}()

// get and put are the cache's primitives taken one at a time under its
// mutex, for the tests that drive a planCache directly.
func (c *planCache) get(key string, version uint64) (*planEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.getLocked(key, version)
}

func (c *planCache) put(e *planEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(e)
}
