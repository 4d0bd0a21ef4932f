// Package testkit is the one copy of the "mini traffic" test fixture: blobs
// whose dense features encode their own ground truth (vehicle type, color,
// speed), the 14-clause PP set trained on them, a one-UDF pipeline that
// materializes those attributes, and a canonical rendering of results. Every
// PP outcome is known exactly, which is what lets the tests above the engine
// state byte-identity.
//
// Only _test.go files import this package, and it imports nothing above the
// engine — not optimizer, serve or stream — so those packages' internal
// tests can use it without an import cycle. Both rules are checked
// by TestKitImports. The composition oracle, which needs the whole stack,
// is the oracle sub-package.
package testkit

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"probpred/internal/blob"
	"probpred/internal/core"
	"probpred/internal/dimred"
	"probpred/internal/engine"
	"probpred/internal/fault"
	"probpred/internal/mathx"
	"probpred/internal/query"
	"probpred/internal/udf"
)

// Feature layout of a mini traffic blob.
const (
	FType  = 0 // vehicle type index into Types
	FColor = 1 // color index into Colors
	FSpeed = 2 // speed 0..80
	FNoise = 3 // per-blob noise that makes speed PPs imperfect
)

var (
	Types  = []string{"sedan", "SUV", "truck", "van"}
	Colors = []string{"white", "black", "silver", "red", "other"}
	// SpeedBounds are the speed clauses the PP set covers: s>v for the
	// first three, s<v for the last two.
	SpeedBounds = []string{"s>40", "s>50", "s>60", "s<65", "s<70"}
)

// Blobs generates n mini traffic blobs, IDs 0..n-1.
func Blobs(n int, seed uint64) []blob.Blob {
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

// DriftBlobs inverts the statistics the PPs were validated on: every blob
// is red (the rare color) and only every tenth is an SUV, so a plan that
// tests "red" first short-circuits in the expensive order.
func DriftBlobs(n int) []blob.Blob {
	out := make([]blob.Blob, n)
	for i := range out {
		typ := 0.0 // sedan
		if i%10 == 0 {
			typ = 1 // SUV
		}
		out[i] = blob.FromDense(i, mathx.Vec{typ, 3 /* red */, 40, 0})
	}
	return out
}

// Lookup decodes a blob's ground-truth t, c and s columns.
func Lookup(b blob.Blob) query.Lookup {
	return func(col string) (query.Value, bool) {
		switch col {
		case "t":
			return query.Str(Types[int(b.Dense[FType])]), true
		case "c":
			return query.Str(Colors[int(b.Dense[FColor])]), true
		case "s":
			return query.Number(b.Dense[FSpeed]), true
		}
		return query.Value{}, false
	}
}

// Set labels blobs against a predicate.
func Set(tb testing.TB, blobs []blob.Blob, pred string) blob.Set {
	tb.Helper()
	p := query.MustParse(pred)
	var s blob.Set
	for _, b := range blobs {
		ok, err := p.Eval(Lookup(b))
		if err != nil {
			tb.Fatalf("labeling %q: %v", pred, err)
		}
		s.Append(b, ok)
	}
	return s
}

// Domains is data.TrafficDomains in miniature.
func Domains() map[string][]query.Value {
	d := map[string][]query.Value{}
	for _, t := range Types {
		d["t"] = append(d["t"], query.Str(t))
	}
	for _, c := range Colors {
		d["c"] = append(d["c"], query.Str(c))
	}
	for s := 0.0; s <= 80; s += 10 {
		d["s"] = append(d["s"], query.Number(s))
	}
	return d
}

// exactScorer scores +1/−1 on an exact match of the wanted type and color
// indices (−1 matches any): a perfect PP.
type exactScorer struct {
	t, c, cost float64
}

func (s exactScorer) Score(x mathx.Vec) float64 {
	if (s.t < 0 || x[FType] == s.t) && (s.c < 0 || x[FColor] == s.c) {
		return 1
	}
	return -1
}

func (s exactScorer) ScoreBatch(xs []float64, d int, out []float64) { scoreRows(s.Score, xs, d, out) }
func (s exactScorer) Name() string                                  { return "exact" }
func (s exactScorer) Cost() float64                                 { return s.cost }

// speedScorer ranks blobs by noisy speed: an imperfect monotone PP whose
// accuracy-reduction trade-off is non-trivial.
type speedScorer struct {
	sign  float64 // +1 for lower bounds (s>v), −1 for upper bounds (s<v)
	noise float64
	cost  float64
}

func (s speedScorer) Score(x mathx.Vec) float64 {
	return s.sign * (x[FSpeed] + x[FNoise]*s.noise)
}

func (s speedScorer) ScoreBatch(xs []float64, d int, out []float64) { scoreRows(s.Score, xs, d, out) }
func (s speedScorer) Name() string                                  { return "speed" }
func (s speedScorer) Cost() float64                                 { return s.cost }

// scoreRows is both scorers' ScoreBatch: each row exactly Score.
func scoreRows(score func(mathx.Vec) float64, xs []float64, d int, out []float64) {
	for i := range out {
		out[i] = score(xs[i*d : (i+1)*d])
	}
}

// newPP builds one PP over validation blobs with the 4-dim identity reducer.
func newPP(tb testing.TB, clause, approach string, sc core.Scorer, val []blob.Blob) *core.PP {
	tb.Helper()
	pp, err := core.NewPP(clause, approach, dimred.Identity{Dim: 4}, sc, Set(tb, val, clause))
	if err != nil {
		tb.Fatalf("building %q: %v", clause, err)
	}
	return pp
}

// ExactPP is the perfect PP for an equality clause "t=…" or "c=…", or for
// their conjunction "c=… & t=…" (a composite PP).
func ExactPP(tb testing.TB, clause string, val []blob.Blob, cost float64) *core.PP {
	sc := exactScorer{t: -1, c: -1, cost: cost}
	for _, eq := range strings.Split(clause, " & ") {
		col, value, _ := strings.Cut(eq, "=")
		i := -1
		switch col {
		case "t":
			i = slices.Index(Types, value)
			sc.t = float64(i)
		case "c":
			i = slices.Index(Colors, value)
			sc.c = float64(i)
		}
		if i < 0 {
			tb.Fatalf("ExactPP: %q is not a conjunction of mini equality clauses", clause)
		}
	}
	return newPP(tb, clause, "test", sc, val)
}

// SpeedPP is a noisy PP for a speed bound "s>v" or "s<v"; approach names
// how it was built (a retrained replacement, say).
func SpeedPP(tb testing.TB, clause, approach string, val []blob.Blob, noise, cost float64) *core.PP {
	sign := 1.0
	if strings.HasPrefix(clause, "s<") {
		sign = -1
	}
	return newPP(tb, clause, approach, speedScorer{sign: sign, noise: noise, cost: cost}, val)
}

// PPs is the standard corpus over validation blobs (the §8.2 corpus in
// miniature): an exact PP for every type and color value at cost 1, and a
// speed PP (noise 4, cost 1.2) for every SpeedBounds clause.
func PPs(tb testing.TB, val []blob.Blob) []*core.PP {
	var out []*core.PP
	for _, typ := range Types {
		out = append(out, ExactPP(tb, "t="+typ, val, 1))
	}
	for _, col := range Colors {
		out = append(out, ExactPP(tb, "c="+col, val, 1))
	}
	for _, clause := range SpeedBounds {
		out = append(out, SpeedPP(tb, clause, "test", val, 4, 1.2))
	}
	return out
}

// UDF materializes the t, c and s columns from a blob's encoded features,
// standing in for the detector + attribute pipeline a PP short-circuits. Its
// value is its per-row virtual cost.
type UDF float64

func (u UDF) Name() string  { return "miniUDF" }
func (u UDF) Cost() float64 { return float64(u) }
func (u UDF) Apply(b engine.Batch) error {
	t, c, s := b.Column("t"), b.Column("c"), b.Column("s")
	for i := range b.Len() {
		lk := Lookup(b.Blob(i))
		t[i], _ = lk("t")
		c[i], _ = lk("c")
		s[i], _ = lk("s")
	}
	return nil
}

// Builder assembles the mini plan scan → [PP filter] → UDF → σ over any
// blob slice (it is a serve.CorpusBuilder). A nil UDF runs UDF(40). With
// Faults set, every plan wraps its UDF in a fresh udf.Faulty: attempt
// counts start over per plan, so a blob's fault schedule is the same
// whichever plan — shard leg, segment or reference run — scans it. With
// Refuse set, assembly fails with the error it returns for the blobs and
// predicate, if any.
type Builder struct {
	UDF    engine.Processor
	Faults *fault.Injector
	Refuse func([]blob.Blob, query.Pred) error
}

func (b Builder) proc() engine.Processor {
	if b.UDF == nil {
		return UDF(40)
	}
	return b.UDF
}

// UDFCost is the per-blob cost a PP can short-circuit.
func (b Builder) UDFCost(query.Pred) (float64, error) { return b.proc().Cost(), nil }

// BuildOver assembles the plan over blobs; a nil filter runs unmodified.
func (b Builder) BuildOver(blobs []blob.Blob, pred query.Pred, filter engine.BlobFilter) (engine.Plan, error) {
	if b.Refuse != nil {
		if err := b.Refuse(blobs, pred); err != nil {
			return engine.Plan{}, err
		}
	}
	p := b.proc()
	if b.Faults != nil {
		p = udf.Faulty(p, b.Faults)
	}
	return engine.InferencePlan(blobs, filter, []engine.Processor{p}, pred), nil
}

// Split cuts blobs into segments at the given non-decreasing cut points; a
// repeated cut is an empty segment.
func Split(blobs []blob.Blob, cuts []int) [][]blob.Blob {
	var segs [][]blob.Blob
	prev := 0
	for _, c := range cuts {
		segs = append(segs, blobs[prev:c])
		prev = c
	}
	return append(segs, blobs[prev:])
}

// CheckLedger asserts the one-ledger invariant on a result: PerOp costs sum
// to ClusterTime (merging shards regroups float additions, hence the
// relative tolerance) and row counts chain through the operators to the
// result. label prefixes every complaint.
func CheckLedger(tb testing.TB, label string, res *engine.Result) {
	tb.Helper()
	sum := 0.0
	for _, op := range res.PerOp {
		sum += op.Cost
	}
	if math.Abs(sum-res.ClusterTime) > 1e-9*math.Abs(res.ClusterTime) {
		tb.Errorf("%s: Σ PerOp.Cost = %v, ClusterTime = %v", label, sum, res.ClusterTime)
	}
	ops := res.PerOp
	if len(ops) == 0 {
		tb.Fatalf("%s: result carries no PerOp ledger", label)
	}
	for i := 1; i < len(ops); i++ {
		if ops[i].RowsIn != ops[i-1].RowsOut {
			tb.Errorf("%s: PerOp[%d] %s: %d rows in, predecessor produced %d", label, i, ops[i].Name, ops[i].RowsIn, ops[i-1].RowsOut)
		}
	}
	if last := ops[len(ops)-1]; last.RowsOut != len(res.Rows) {
		tb.Errorf("%s: last operator produced %d rows, result has %d", label, last.RowsOut, len(res.Rows))
	}
}

// RenderResult is one result's canonical line: label, cardinality, cluster
// time to six places, and every output blob ID in order. Equal renderings
// mean equal served results.
func RenderResult(id string, res *engine.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s rows=%d cluster=%.6f ids=", id, len(res.Rows), res.ClusterTime)
	for i, row := range res.Rows {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", row.Blob.ID)
	}
	sb.WriteByte('\n')
	return sb.String()
}

// RenderRows renders rows with their columns, in order: "id:[cols];…".
func RenderRows(rows []engine.Row) string {
	var sb strings.Builder
	for _, r := range rows {
		fmt.Fprintf(&sb, "%d:%v;", r.Blob.ID, r.Columns())
	}
	return sb.String()
}

// RandomPred draws a predicate of n clauses from the mini vocabulary — the
// PP set's clauses, their negations, and speed bounds no PP covers exactly —
// joined by & and | in a random tree.
func RandomPred(rng *mathx.RNG, n int) string {
	if n > 1 {
		k := 1 + rng.Intn(n-1)
		op := []string{" & ", " | "}[rng.Intn(2)]
		return "(" + RandomPred(rng, k) + op + RandomPred(rng, n-k) + ")"
	}
	switch rng.Intn(3) {
	case 0:
		return "t" + []string{"=", "!="}[rng.Intn(2)] + Types[rng.Intn(len(Types))]
	case 1:
		return "c" + []string{"=", "!="}[rng.Intn(2)] + Colors[rng.Intn(len(Colors))]
	}
	return "s" + []string{">", "<", ">="}[rng.Intn(3)] + fmt.Sprint(35+5*rng.Intn(8))
}

// Query is one query of a mini workload. Its fields match
// serve.WorkloadQuery's and stream.Query's, so it converts to either.
type Query struct {
	ID, Pred string
	Accuracy float64 // zero selects the server's default
}

// Workload is an overlapping-predicate mix in the TRAF20 spirit: the same
// clauses recur across queries in different combinations and spellings,
// which is what makes the plan and score caches earn their keep.
var Workload = []Query{
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

// Standing is the standing-query mix: overlapping clauses across columns,
// exact and noisy PPs, a conjunction and a disjunction.
var Standing = []Query{
	{ID: "SQ1", Pred: "t=SUV", Accuracy: 0.95},
	{ID: "SQ2", Pred: "c=red", Accuracy: 0.95},
	{ID: "SQ3", Pred: "s>60", Accuracy: 0.9},
	{ID: "SQ4", Pred: "t=SUV & s>60", Accuracy: 0.9},
	{ID: "SQ5", Pred: "t=truck | t=van", Accuracy: 0.95},
}

// CheckKernels fails tb unless mathx runs the kernel set the host supports:
// the portable one off amd64, and on amd64 the AVX2 one exactly when
// /proc/cpuinfo lists the avx2 flag, which Linux does only when it also
// saves the YMM state. Where that file cannot be read it only logs the set.
func CheckKernels(tb testing.TB) {
	tb.Helper()
	got := mathx.Kernels()
	switch info, err := os.ReadFile("/proc/cpuinfo"); {
	case runtime.GOARCH != "amd64":
		if got != "go" {
			tb.Fatalf("mathx.Kernels() = %q on %s, want \"go\"", got, runtime.GOARCH)
		}
	case err == nil:
		for _, line := range strings.Split(string(info), "\n") {
			if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
				want := "go"
				if slices.Contains(strings.Fields(flags), "avx2") {
					want = "avx2"
				}
				if got != want {
					tb.Fatalf("mathx.Kernels() = %q, but /proc/cpuinfo's flags make it %q", got, want)
				}
				break
			}
		}
	}
	tb.Logf("mathx kernels in use: %s", got)
}
