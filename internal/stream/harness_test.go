package stream

// Test harness: the serve package's "mini traffic" fixture rebuilt around
// streaming ingestion — the same dense-feature blob scheme and seeded PP
// corpus, but plan assembly goes through a serve.CorpusBuilder (BuildOver)
// so each segment's standing-query session scans exactly that segment.
// Everything is seeded and deterministic.

import (
	"fmt"
	"strings"
	"testing"

	"probpred/internal/blob"
	"probpred/internal/core"
	"probpred/internal/dimred"
	"probpred/internal/engine"
	"probpred/internal/mathx"
	"probpred/internal/optimizer"
	"probpred/internal/query"
	"probpred/internal/serve"
)

// Feature layout of a mini traffic blob.
const (
	fType  = 0 // vehicle type index 0..3
	fColor = 1 // color index 0..4
	fSpeed = 2 // speed 0..80
	fNoise = 3 // per-blob noise making speed PPs imperfect
)

var (
	miniTypes  = []string{"sedan", "SUV", "truck", "van"}
	miniColors = []string{"white", "black", "silver", "red", "other"}
)

func miniBlobs(n int, seed uint64) []blob.Blob {
	rng := mathx.NewRNG(seed)
	out := make([]blob.Blob, n)
	for i := range out {
		t := rng.Choice([]float64{0.45, 0.25, 0.14, 0.16})
		c := rng.Choice([]float64{0.33, 0.25, 0.20, 0.12, 0.10})
		s := mathx.Clamp(40+rng.NormFloat64()*15, 0, 80)
		out[i] = blob.FromDense(i, mathx.Vec{float64(t), float64(c), s, rng.NormFloat64()})
	}
	return out
}

func miniLookup(b blob.Blob) query.Lookup {
	return func(col string) (query.Value, bool) {
		switch col {
		case "t":
			return query.Str(miniTypes[int(b.Dense[fType])]), true
		case "c":
			return query.Str(miniColors[int(b.Dense[fColor])]), true
		case "s":
			return query.Number(b.Dense[fSpeed]), true
		}
		return query.Value{}, false
	}
}

func miniSet(t *testing.T, blobs []blob.Blob, pred string) blob.Set {
	t.Helper()
	p := query.MustParse(pred)
	var s blob.Set
	for _, b := range blobs {
		ok, err := p.Eval(miniLookup(b))
		if err != nil {
			t.Fatalf("labeling %q: %v", pred, err)
		}
		s.Append(b, ok)
	}
	return s
}

type exactScorer struct {
	dim  int
	want float64
	cost float64
}

func (s exactScorer) Score(x mathx.Vec) float64 {
	if x[s.dim] == s.want {
		return 1
	}
	return -1
}
func (s exactScorer) Name() string  { return "exact" }
func (s exactScorer) Cost() float64 { return s.cost }

type speedScorer struct {
	sign  float64
	noise float64
	cost  float64
}

func (s speedScorer) Score(x mathx.Vec) float64 {
	return s.sign * (x[fSpeed] + x[fNoise]*s.noise)
}
func (s speedScorer) Name() string  { return "speed" }
func (s speedScorer) Cost() float64 { return s.cost }

func miniCorpus(t *testing.T, val []blob.Blob) *optimizer.Corpus {
	t.Helper()
	c := optimizer.NewCorpus()
	id := dimred.Identity{Dim: 4}
	addExact := func(clause string, dim int, want float64, cost float64) {
		set := miniSet(t, val, clause)
		pp, err := core.NewPP(clause, "test", id, exactScorer{dim: dim, want: want, cost: cost}, set)
		if err != nil {
			t.Fatalf("building %q: %v", clause, err)
		}
		c.Add(pp)
	}
	for i, typ := range miniTypes {
		addExact("t="+typ, fType, float64(i), 1.0)
	}
	for i, col := range miniColors {
		addExact("c="+col, fColor, float64(i), 1.0)
	}
	addSpeed := func(clause string, sign float64) {
		set := miniSet(t, val, clause)
		pp, err := core.NewPP(clause, "test", id, speedScorer{sign: sign, noise: 4, cost: 1.2}, set)
		if err != nil {
			t.Fatalf("building %q: %v", clause, err)
		}
		c.Add(pp)
	}
	for _, v := range []string{"40", "50", "60"} {
		addSpeed("s>"+v, 1)
	}
	for _, v := range []string{"65", "70"} {
		addSpeed("s<"+v, -1)
	}
	return c
}

func miniDomains() map[string][]query.Value {
	d := map[string][]query.Value{}
	for _, t := range miniTypes {
		d["t"] = append(d["t"], query.Str(t))
	}
	for _, c := range miniColors {
		d["c"] = append(d["c"], query.Str(c))
	}
	for s := 0.0; s <= 80; s += 10 {
		d["s"] = append(d["s"], query.Number(s))
	}
	return d
}

// miniUDF materializes t/c/s columns from the encoded features, standing in
// for the detector+attribute pipeline the PP short-circuits.
type miniUDF struct{ cost float64 }

func (u miniUDF) Name() string  { return "miniUDF" }
func (u miniUDF) Cost() float64 { return u.cost }
func (u miniUDF) ApplyBatch(in, out []engine.Row) ([]engine.Row, error) {
	for _, r := range in {
		lk := miniLookup(r.Blob)
		for _, col := range []string{"t", "c", "s"} {
			v, _ := lk(col)
			r = r.With(col, v)
		}
		out = append(out, r)
	}
	return out, nil
}

// miniBuilder implements serve.CorpusBuilder: scan over the given blobs →
// [PP filter] → UDF → σ.
type miniBuilder struct{ udf engine.Processor }

func (b *miniBuilder) UDFCost(query.Pred) (float64, error) { return b.udf.Cost(), nil }

func (b *miniBuilder) BuildOver(blobs []blob.Blob, pred query.Pred, filter engine.BlobFilter) (engine.Plan, error) {
	ops := []engine.Operator{&engine.Scan{Blobs: blobs}}
	if filter != nil {
		ops = append(ops, &engine.PPFilter{F: filter})
	}
	ops = append(ops, &engine.Process{P: b.udf}, &engine.Select{Pred: pred})
	return engine.Plan{Ops: ops}, nil
}

// miniStack is one fully wired streaming fixture: segmented corpus, server
// planning over a pretrained (frozen unless Online is wired) PP corpus, and
// an Ingestor. srv is nil when a Coordinator serves the stream.
type miniStack struct {
	ppCorpus *optimizer.Corpus
	corpus   *SegmentedCorpus
	srv      *serve.Server
	ing      *Ingestor
}

// miniServeConfig is the fixture's server template over a freshly trained PP
// corpus.
func miniServeConfig(t *testing.T, workers int) (serve.Config, *optimizer.Corpus) {
	t.Helper()
	ppc := miniCorpus(t, miniBlobs(400, 8))
	return serve.Config{
		Optimizer: optimizer.New(ppc),
		Corpus:    &miniBuilder{udf: miniUDF{cost: 40}},
		Accuracy:  0.95,
		Domains:   miniDomains(),
		Exec:      engine.Config{NoStageOverhead: true, Workers: workers},
	}, ppc
}

// newMiniStack wires the fixture. workers sets engine parallelism; mutateSrv
// and mutateIng adjust the configs before construction (nil for defaults —
// frozen PP state, no online system).
func newMiniStack(t *testing.T, workers int, mutateSrv func(*serve.Config), mutateIng func(*Config)) *miniStack {
	t.Helper()
	scfg, ppc := miniServeConfig(t, workers)
	if mutateSrv != nil {
		mutateSrv(&scfg)
	}
	srv, err := serve.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	corpus := NewSegmentedCorpus()
	icfg := Config{Server: srv, Corpus: corpus}
	if mutateIng != nil {
		mutateIng(&icfg)
	}
	ing, err := New(icfg)
	if err != nil {
		t.Fatal(err)
	}
	return &miniStack{ppCorpus: ppc, corpus: corpus, srv: srv, ing: ing}
}

// newMiniShardedStack wires the fixture behind a Coordinator of shards ×
// replicas servers cut from the same template, each admitting maxConcurrent
// sessions. Every stream request carries its blobs, which the coordinator
// splits across the shards, so its static corpus only has to fill them.
func newMiniShardedStack(t *testing.T, workers, shards, replicas, maxConcurrent int) *miniStack {
	t.Helper()
	scfg, ppc := miniServeConfig(t, workers)
	scfg.MaxConcurrent = maxConcurrent
	coord, err := serve.NewSharded(serve.ShardedConfig{
		Base: scfg, Shards: shards, Replicas: replicas,
		Corpus: miniBlobs(shards, 0), Builder: scfg.Corpus,
	})
	if err != nil {
		t.Fatal(err)
	}
	corpus := NewSegmentedCorpus()
	ing, err := New(Config{Server: coord, Corpus: corpus})
	if err != nil {
		t.Fatal(err)
	}
	return &miniStack{ppCorpus: ppc, corpus: corpus, ing: ing}
}

// register installs standing queries or fails the test.
func (s *miniStack) register(t *testing.T, qs ...Query) {
	t.Helper()
	for _, q := range qs {
		if err := s.ing.Register(q); err != nil {
			t.Fatal(err)
		}
	}
}

// renderRows flattens a response's result rows into the canonical byte form
// backfill-vs-live equivalence is stated in: every output blob ID in order.
// Cost fields are deliberately excluded — splitting one scan into N charges
// identical per-row costs but may accumulate them in a different floating-
// point association, so costs are compared with a tolerance instead.
func renderRows(r *serve.Response) string {
	var sb strings.Builder
	for i, row := range r.Result.Rows {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", row.Blob.ID)
	}
	return sb.String()
}

// renderLive concatenates one standing query's deltas, in segment order,
// into the same canonical form as renderRows over the batch result.
func renderLive(deltas [][]Delta, queryID string) string {
	var parts []string
	for _, segDeltas := range deltas {
		for _, d := range segDeltas {
			if d.Query != queryID || len(d.Resp.Result.Rows) == 0 {
				continue
			}
			parts = append(parts, renderRows(d.Resp))
		}
	}
	return strings.Join(parts, ",")
}

// liveCluster sums a standing query's per-delta cluster times.
func liveCluster(deltas [][]Delta, queryID string) float64 {
	var total float64
	for _, segDeltas := range deltas {
		for _, d := range segDeltas {
			if d.Query == queryID {
				total += d.Resp.Result.ClusterTime
			}
		}
	}
	return total
}

// splitSegments cuts blobs into segments at the given cut points (each a
// strictly increasing index into blobs).
func splitSegments(blobs []blob.Blob, cuts []int) [][]blob.Blob {
	var segs [][]blob.Blob
	prev := 0
	for _, c := range cuts {
		segs = append(segs, blobs[prev:c])
		prev = c
	}
	return append(segs, blobs[prev:])
}

// miniStandingQueries is the standing workload used by the golden and
// property tests: overlapping clauses across columns, exact and noisy PPs,
// a conjunction and a disjunction.
var miniStandingQueries = []Query{
	{ID: "SQ1", Pred: "t=SUV", Accuracy: 0.95},
	{ID: "SQ2", Pred: "c=red", Accuracy: 0.95},
	{ID: "SQ3", Pred: "s>60", Accuracy: 0.9},
	{ID: "SQ4", Pred: "t=SUV & s>60", Accuracy: 0.9},
	{ID: "SQ5", Pred: "t=truck | t=van", Accuracy: 0.95},
}
