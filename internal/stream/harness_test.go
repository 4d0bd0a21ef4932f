package stream

// Test harness: the mini traffic fixture of internal/testkit wired into a
// streaming stack — a server planning over the kit's PP corpus, whose
// sessions scan exactly the segment they serve, and an Ingestor. Everything
// is seeded and deterministic.

import (
	"testing"

	"probpred/internal/engine"
	"probpred/internal/optimizer"
	"probpred/internal/serve"
	"probpred/internal/testkit"
)

// miniStack is one fully wired streaming fixture.
type miniStack struct {
	corpus *SegmentedCorpus
	srv    *serve.Server
	ing    *Ingestor
}

// newMiniStack wires the fixture. mutateSrv and mutateIng adjust the configs
// before construction (nil for defaults — frozen PP state, no online system).
func newMiniStack(t *testing.T, mutateSrv func(*serve.Config), mutateIng func(*Config)) *miniStack {
	t.Helper()
	ppc := optimizer.NewCorpus()
	for _, pp := range testkit.PPs(t, testkit.Blobs(400, 8)) {
		ppc.Add(pp)
	}
	scfg := serve.Config{
		Optimizer: optimizer.New(ppc),
		Corpus:    testkit.Builder{},
		Accuracy:  0.95,
		Domains:   testkit.Domains(),
		Exec:      engine.Config{NoStageOverhead: true},
	}
	if mutateSrv != nil {
		mutateSrv(&scfg)
	}
	srv, err := serve.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus := NewSegmentedCorpus()
	cfg := Config{Server: srv, Corpus: corpus}
	if mutateIng != nil {
		mutateIng(&cfg)
	}
	ing, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &miniStack{corpus: corpus, srv: srv, ing: ing}
}

// register installs standing queries or fails the test.
func (s *miniStack) register(t *testing.T, qs ...testkit.Query) {
	t.Helper()
	for _, q := range qs {
		if err := s.ing.Register(Query(q)); err != nil {
			t.Fatal(err)
		}
	}
}
