package serve

// Test harness: a miniature serving stack over "mini traffic" blobs whose
// dense features directly encode ground-truth attributes (the same scheme as
// the optimizer's test harness), plus a QueryBuilder modeling a one-UDF
// pipeline. Everything is seeded and deterministic.

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

// miniBuilder implements QueryBuilder: scan → [PP filter] → UDF → σ.
type miniBuilder struct {
	blobs []blob.Blob
	udf   engine.Processor
}

func (b *miniBuilder) UDFCost(query.Pred) (float64, error) { return b.udf.Cost(), nil }

func (b *miniBuilder) Build(pred query.Pred, filter engine.BlobFilter) (engine.Plan, error) {
	ops := []engine.Operator{&engine.Scan{Blobs: b.blobs}}
	if filter != nil {
		ops = append(ops, &engine.PPFilter{F: filter})
	}
	ops = append(ops, &engine.Process{P: b.udf}, &engine.Select{Pred: pred})
	return engine.Plan{Ops: ops}, nil
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
	blobs := miniBlobs(nBlobs, 7)
	val := miniBlobs(400, 8)
	corpus := miniCorpus(t, val)
	cfg := Config{
		Optimizer: optimizer.New(corpus),
		Builder:   &miniBuilder{blobs: blobs, udf: miniUDF{cost: 40}},
		Accuracy:  0.95,
		Domains:   miniDomains(),
		Exec:      engine.Config{NoStageOverhead: true},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &miniStack{blobs: blobs, corpus: corpus, srv: srv}
}

// renderResponses flattens responses into one canonical string: query ID,
// result cardinality and cluster time, and every output blob ID in order.
// Byte-equal renderings mean byte-equal served results.
func renderResponses(resps []*Response) string {
	var sb strings.Builder
	for _, r := range resps {
		if r == nil {
			sb.WriteString("<nil>\n")
			continue
		}
		fmt.Fprintf(&sb, "%s rows=%d cluster=%.6f ids=", r.ID, len(r.Result.Rows), r.Result.ClusterTime)
		for i, row := range r.Result.Rows {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", row.Blob.ID)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// miniWorkload is an overlapping-predicate workload in the TRAF20 spirit:
// the same clauses recur across queries in different combinations and
// spellings, which is what makes both caches earn their keep.
var miniWorkload = []WorkloadQuery{
	{ID: "Q1", Pred: "t=SUV"},
	{ID: "Q2", Pred: "c=red"},
	{ID: "Q3", Pred: "s>60"},
	{ID: "Q4", Pred: "t=SUV & c=red"},
	{ID: "Q5", Pred: "c=red & t=SUV"}, // Q4 respelled: same canonical plan
	{ID: "Q6", Pred: "t=SUV & s>60"},
	{ID: "Q7", Pred: "t=truck | t=van"},
	{ID: "Q8", Pred: "c=red & s>60"},
	{ID: "Q9", Pred: "t=SUV & c=red & s>60"},
	{ID: "Q10", Pred: "s>60 & t=SUV"}, // Q6 respelled
}

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
