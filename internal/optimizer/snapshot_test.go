package optimizer

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"probpred/internal/core"
	"probpred/internal/query"
	"probpred/internal/testkit"
)

// searchOutcome is what a plan search must reproduce exactly given the same
// predicate, options and corpus snapshot.
type searchOutcome struct {
	Inject               bool
	Expr, LeafAccuracies string
	PlanCost             float64
	Consulted            string
}

func outcomeOf(d *Decision) searchOutcome {
	return searchOutcome{d.Inject, d.Expr, d.LeafAccuracies, d.PlanCost, strings.Join(d.Consulted(), ",")}
}

// snapshotMix exercises direct, negation-derived, relaxed, complement and
// uncovered lookups.
var snapshotMix = []string{
	"c!=white",
	"t=SUV & s>65",
	"t=SUV | t=van",
	"c=red & s>50 & t!=sedan",
	"s<60 | c=black",
	"zz=1 & s>60",
}

// TestSnapshotConsultedIndependentOfWarmth: the dependency set of a decision
// is a function of (predicate, options, snapshot) — the second search of a
// predicate, which finds its negation already derived, reports the same keys
// as the first, negation base included.
func TestSnapshotConsultedIndependentOfWarmth(t *testing.T) {
	o := New(miniCorpus(t, testkit.Blobs(400, 5)))
	opts := Options{Accuracy: 0.95, UDFCost: 100, Domains: testkit.Domains()}
	for _, pred := range snapshotMix {
		cold, err := o.Optimize(query.MustParse(pred), opts)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := o.Optimize(query.MustParse(pred), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold.Consulted(), warm.Consulted()) {
			t.Errorf("%q: first search consulted %v, second %v", pred, cold.Consulted(), warm.Consulted())
		}
	}
	dec, _ := o.Optimize(query.MustParse("c!=white"), opts)
	if !strings.Contains(","+strings.Join(dec.Consulted(), ",")+",", ",c=white,") {
		t.Errorf("c!=white did not report its negation base: %v", dec.Consulted())
	}
}

// TestConcurrentSearchMatchesSerialSnapshot: searches on two optimizers over
// one corpus, racing a writer that retrains and removes PPs, each return the
// decision a serial search returns on the snapshot version they report.
func TestConcurrentSearchMatchesSerialSnapshot(t *testing.T) {
	val := testkit.Blobs(400, 23)
	corpus := miniCorpus(t, val)
	base := make([]*core.PP, 0, corpus.Size())
	for _, clause := range corpus.Clauses() {
		pp, _ := corpus.Get(clause)
		base = append(base, pp)
	}
	// The writer's script: every step is one successful mutation.
	retrained := func(clause string) *core.PP {
		return testkit.SpeedPP(t, clause, "retrained", val, 9, 0.9)
	}
	white, _ := corpus.Get("c=white")
	suv, _ := corpus.Get("t=SUV")
	round := []func(*Corpus){
		func(c *Corpus) { c.Remove("s>60") },
		func(c *Corpus) { c.Add(retrained("s>60")) },
		func(c *Corpus) { c.Remove("c=white") },
		func(c *Corpus) { c.Add(white) },
		func(c *Corpus) { c.Add(retrained("s>50")) },
		func(c *Corpus) { c.Remove("t=SUV") },
		func(c *Corpus) { c.Add(suv) },
	}
	var script []func(*Corpus)
	for i := 0; i < 4; i++ {
		script = append(script, round...)
	}
	preds := make([]query.Pred, len(snapshotMix))
	for i, p := range snapshotMix {
		preds[i] = query.MustParse(p)
	}
	opts := Options{Accuracy: 0.95, UDFCost: 100, Domains: testkit.Domains()}

	type observed struct {
		pred    int
		version uint64
		got     searchOutcome
	}
	const searchers = 8
	opt := [2]*Optimizer{New(corpus), New(corpus)}
	results := make([][]observed, searchers)
	var written atomic.Bool
	var searched atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < searchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !written.Load() || i < len(preds); i++ {
				p := (g + i) % len(preds)
				dec, err := opt[g%2].Optimize(preds[p], opts)
				if err != nil {
					t.Error(err)
					return
				}
				results[g] = append(results[g], observed{p, dec.CorpusVersion, outcomeOf(dec)})
				searched.Add(1)
			}
		}(g)
	}
	// The writer paces itself on the searchers' progress, so every version is
	// published while searches are in flight and is live for a few more.
	for _, step := range script {
		for next := searched.Load() + searchers; searched.Load() < next; {
			runtime.Gosched()
		}
		step(corpus)
	}
	written.Store(true)
	wg.Wait()

	// The serial reference: the same PPs and script on a fresh corpus,
	// searched at every version.
	ref := NewCorpus()
	for _, pp := range base {
		ref.Add(pp)
	}
	serial := map[uint64][]searchOutcome{}
	searchAll := func() {
		o := New(ref)
		for _, p := range preds {
			dec, err := o.Optimize(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			serial[ref.Version()] = append(serial[ref.Version()], outcomeOf(dec))
		}
	}
	searchAll()
	for _, step := range script {
		step(ref)
		searchAll()
	}
	if ref.Version() != corpus.Version() {
		t.Fatalf("reference corpus at version %d, raced corpus at %d", ref.Version(), corpus.Version())
	}
	versions := map[uint64]bool{}
	for g := range results {
		for _, r := range results[g] {
			versions[r.version] = true
			want, ok := serial[r.version]
			if !ok {
				t.Fatalf("search reported version %d, which the script never published", r.version)
			}
			if r.got != want[r.pred] {
				t.Errorf("%q at version %d:\n got %+v\nwant %+v", snapshotMix[r.pred], r.version, r.got, want[r.pred])
			}
		}
	}
	t.Logf("%d searchers saw %d of %d versions", searchers, len(versions), len(script)+1)
}
