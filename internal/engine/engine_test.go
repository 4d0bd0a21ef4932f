package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"probpred/internal/blob"
	"probpred/internal/mathx"
	"probpred/internal/query"
)

// fakeUDF emits a column derived from the blob's truth value.
type fakeUDF struct {
	name string
	cost float64
	col  string
}

func (f fakeUDF) Name() string  { return f.name }
func (f fakeUDF) Cost() float64 { return f.cost }
func (f fakeUDF) Apply(b Batch) error {
	vals := b.Column(f.col)
	for i := range vals {
		v, ok := b.Blob(i).TruthVal(f.col)
		if !ok {
			return &RowError{Index: i, Err: fmt.Errorf("no truth %q", f.col)}
		}
		vals[i] = query.Number(v)
	}
	return nil
}

// thresholdFilter is a BlobFilter passing blobs whose truth value exceeds t.
type thresholdFilter struct {
	col  string
	t    float64
	cost float64
}

func (f thresholdFilter) Name() string { return "thresh" }
func (f thresholdFilter) TestBatch(blobs []blob.Blob, pass []bool, cost []float64, _ *CacheTally) {
	for i, b := range blobs {
		v, _ := b.TruthVal(f.col)
		pass[i], cost[i] = v > f.t, f.cost
	}
}

func makeBlobs(n int) []blob.Blob {
	out := make([]blob.Blob, n)
	truth := blob.NewTruthKeys("x").Rows(n)
	for i := range out {
		b := blob.FromDense(i, mathx.Vec{float64(i)})
		b.Truth = &truth[i]
		b.Truth.Vals[0] = float64(i)
		out[i] = b
	}
	return out
}

func TestScanProcessSelect(t *testing.T) {
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(10)},
		&Process{P: fakeUDF{name: "XExtract", cost: 5, col: "x"}},
		&Select{Pred: query.MustParse("x>=7")},
	}}
	res, err := Run(plan, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (x in {7,8,9})", len(res.Rows))
	}
	// Cluster time: scan 10*0.05 + udf 10*5 + select 10*0.01.
	want := 10*scanCost + 10*5 + 10*selectCost
	if res.ClusterTime != want {
		t.Fatalf("cluster time = %v, want %v", res.ClusterTime, want)
	}
}

func TestPPFilterReducesUDFWork(t *testing.T) {
	mk := func(withPP bool) *Result {
		ops := []Operator{&Scan{Blobs: makeBlobs(100)}}
		if withPP {
			ops = append(ops, &PPFilter{F: thresholdFilter{col: "x", t: 49, cost: 1}})
		}
		ops = append(ops,
			&Process{P: fakeUDF{name: "Expensive", cost: 50, col: "x"}},
			&Select{Pred: query.MustParse("x>89")},
		)
		res, err := Run(Plan{Ops: ops}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	noPP := mk(false)
	withPP := mk(true)
	if len(noPP.Rows) != len(withPP.Rows) {
		t.Fatalf("PP changed results: %d vs %d", len(noPP.Rows), len(withPP.Rows))
	}
	if withPP.ClusterTime >= noPP.ClusterTime {
		t.Fatalf("PP did not reduce cluster time: %v vs %v", withPP.ClusterTime, noPP.ClusterTime)
	}
	// UDF should have processed only the 50 passing rows.
	if got := withPP.PerOp[2]; got.Name != "Expensive" || got.RowsIn != 50 {
		t.Fatalf("UDF row = %+v, want 50 rows in", got)
	}
}

func TestSelectErrorPropagates(t *testing.T) {
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(3)},
		&Select{Pred: query.MustParse("missing=1")},
	}}
	if _, err := Run(plan, Config{}); err == nil {
		t.Fatal("expected error for missing column")
	}
}

func TestProcessErrorPropagates(t *testing.T) {
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: []blob.Blob{blob.FromDense(0, mathx.Vec{1})}}, // no truth
		&Process{P: fakeUDF{name: "X", cost: 1, col: "x"}},
	}}
	if _, err := Run(plan, Config{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestEmptyPlan(t *testing.T) {
	if _, err := Run(Plan{}, Config{}); err == nil {
		t.Fatal("expected error for empty plan")
	}
}

func TestProjectRenameDropCompute(t *testing.T) {
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(5)},
		&Process{P: fakeUDF{name: "X", cost: 1, col: "x"}},
		&Project{
			Rename: map[string]string{"x": "speed"},
			Compute: []ComputedCol{{
				Name: "fast", Cost: 0.1,
				Fn: func(r Row) (query.Value, error) {
					v, err := r.Get("speed")
					if err != nil {
						return query.Value{}, err
					}
					if v.Num > 2 {
						return query.Str("yes"), nil
					}
					return query.Str("no"), nil
				},
			}},
		},
		&Select{Pred: query.MustParse("fast=yes")},
	}}
	res, err := Run(plan, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if _, ok := res.Rows[0].Lookup("x"); ok {
		t.Fatal("rename left old column behind")
	}
}

func TestFKJoin(t *testing.T) {
	dim := []Row{
		Row{}.With("cam", query.Str("c1")).With("zone", query.Str("north")),
		Row{}.With("cam", query.Str("c2")).With("zone", query.Str("south")),
	}
	blobs := makeBlobs(4)
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: blobs},
		&Process{P: fakeUDF{name: "X", cost: 1, col: "x"}},
		&Project{Compute: []ComputedCol{{
			Name: "cam",
			Fn: func(r Row) (query.Value, error) {
				v, _ := r.Get("x")
				if int(v.Num)%2 == 0 {
					return query.Str("c1"), nil
				}
				return query.Str("c3"), nil // no match: dropped
			},
		}}},
		&FKJoin{LeftKey: "cam", RightKey: "cam", Table: dim},
	}}
	res, err := Run(plan, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (only c1 matches)", len(res.Rows))
	}
	z, err := res.Rows[0].Get("zone")
	if err != nil || z.Str != "north" {
		t.Fatalf("zone = %v err=%v", z, err)
	}
}

func TestFKJoinDuplicatePKFails(t *testing.T) {
	dim := []Row{
		Row{}.With("k", query.Str("a")),
		Row{}.With("k", query.Str("a")),
	}
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(1)},
		&Process{P: fakeUDF{name: "X", cost: 1, col: "x"}},
		&Project{Compute: []ComputedCol{{Name: "k", Fn: func(Row) (query.Value, error) {
			return query.Str("a"), nil
		}}}},
		&FKJoin{LeftKey: "k", RightKey: "k", Table: dim},
	}}
	if _, err := Run(plan, Config{}); err == nil {
		t.Fatal("expected duplicate PK error")
	}
}

// countReducer counts rows per key into a "count" column.
type countReducer struct{ keyCol string }

func (c countReducer) Name() string  { return "Count" }
func (c countReducer) Cost() float64 { return 0.5 }
func (c countReducer) Key(r Row) (string, error) {
	v, err := r.Get(c.keyCol)
	if err != nil {
		return "", err
	}
	return v.String(), nil
}
func (c countReducer) Reduce(key string, rows []Row) ([]Row, error) {
	return []Row{Row{}.With("key", query.Str(key)).With("count", query.Number(float64(len(rows))))}, nil
}

func TestGroupReduce(t *testing.T) {
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(10)},
		&Process{P: fakeUDF{name: "X", cost: 1, col: "x"}},
		&Project{Compute: []ComputedCol{{Name: "parity", Fn: func(r Row) (query.Value, error) {
			v, _ := r.Get("x")
			return query.Str([]string{"even", "odd"}[int(v.Num)%2]), nil
		}}}},
		&GroupReduce{R: countReducer{keyCol: "parity"}},
	}}
	res, err := Run(plan, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	// Deterministic key order: "even" before "odd".
	k0, _ := res.Rows[0].Get("key")
	if k0.Str != "even" {
		t.Fatalf("first group = %q, want even", k0.Str)
	}
	c0, _ := res.Rows[0].Get("count")
	if c0.Num != 5 {
		t.Fatalf("even count = %v", c0.Num)
	}
	if res.Stages != 2 {
		t.Fatalf("stages = %d, want 2 (reduce is a barrier)", res.Stages)
	}
}

// pairCombiner emits one row per (left,right) pair sharing a key.
type pairCombiner struct{}

func (pairCombiner) Name() string  { return "Pair" }
func (pairCombiner) Cost() float64 { return 0.1 }
func (pairCombiner) Combine(key string, left, right []Row) ([]Row, error) {
	var out []Row
	for range left {
		for range right {
			out = append(out, Row{}.With("key", query.Str(key)))
		}
	}
	return out, nil
}

func TestCombine(t *testing.T) {
	right := []Row{
		Row{}.With("k", query.Str("a")),
		Row{}.With("k", query.Str("a")),
	}
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(3)},
		&Project{Compute: []ComputedCol{{Name: "k", Fn: func(r Row) (query.Value, error) {
			return query.Str("a"), nil
		}}}},
		&Combine{C: pairCombiner{}, Right: right, LeftKey: "k", RightKey: "k"},
	}}
	res, err := Run(plan, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d, want 3*2", len(res.Rows))
	}
}

func TestLatencyModelStagesSerialize(t *testing.T) {
	blobs := makeBlobs(1000)
	base := Plan{Ops: []Operator{
		&Scan{Blobs: blobs},
		&Process{P: fakeUDF{name: "A", cost: 10, col: "x"}},
		&Process{P: fakeUDF{name: "B", cost: 10, col: "x"}},
	}}
	split := Plan{Ops: []Operator{
		&Scan{Blobs: blobs},
		&Process{P: fakeUDF{name: "A", cost: 10, col: "x"}},
		&Barrier{Label: "mat"},
		&Process{P: fakeUDF{name: "B", cost: 10, col: "x"}},
	}}
	r1, err := Run(base, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(split, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.ClusterTime != r2.ClusterTime {
		t.Fatalf("barrier changed cluster time: %v vs %v", r1.ClusterTime, r2.ClusterTime)
	}
	if r2.Latency <= r1.Latency {
		t.Fatalf("extra stage should increase latency: %v vs %v", r2.Latency, r1.Latency)
	}
	if r2.Stages != r1.Stages+1 {
		t.Fatalf("stages = %d vs %d", r2.Stages, r1.Stages)
	}
}

func TestLatencyScalesWithParallelism(t *testing.T) {
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(1000)},
		&Process{P: fakeUDF{name: "A", cost: 10, col: "x"}},
	}}
	slow, err := Run(plan, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(plan, Config{Parallelism: 32})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Latency >= slow.Latency {
		t.Fatalf("parallelism did not reduce latency: %v vs %v", fast.Latency, slow.Latency)
	}
	if fast.ClusterTime != slow.ClusterTime {
		t.Fatal("parallelism should not change cluster time")
	}
}

func TestRowWithDoesNotMutate(t *testing.T) {
	r := NewRow(blob.Blob{ID: 1})
	r2 := r.With("a", query.Number(1))
	if _, ok := r.Lookup("a"); ok {
		t.Fatal("With mutated the original row")
	}
	if v, ok := r2.Lookup("a"); !ok || v.Num != 1 {
		t.Fatal("With did not set the column")
	}
}

func TestRowGetError(t *testing.T) {
	r := NewRow(blob.Blob{})
	if _, err := r.Get("nope"); err == nil {
		t.Fatal("expected error")
	}
	var e error = errors.New("x")
	_ = e
}

func TestTopK(t *testing.T) {
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(20)},
		&Process{P: fakeUDF{name: "X", cost: 1, col: "x"}},
		&TopK{By: "x", K: 3},
	}}
	res, err := Run(plan, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i, want := range []float64{19, 18, 17} {
		v, _ := res.Rows[i].Get("x")
		if v.Num != want {
			t.Fatalf("row %d = %v, want %v", i, v.Num, want)
		}
	}
	if res.Stages != 2 {
		t.Fatalf("TopK should be a stage boundary: stages = %d", res.Stages)
	}
}

func TestTopKAscendingAndSmallInput(t *testing.T) {
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(2)},
		&Process{P: fakeUDF{name: "X", cost: 1, col: "x"}},
		&TopK{By: "x", K: 5, Asc: true},
	}}
	res, err := Run(plan, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	v0, _ := res.Rows[0].Get("x")
	if v0.Num != 0 {
		t.Fatalf("ascending order wrong: %v", v0.Num)
	}
}

func TestTopKErrors(t *testing.T) {
	bad := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(3)},
		&TopK{By: "missing", K: 1},
	}}
	if _, err := Run(bad, Config{}); err == nil {
		t.Fatal("expected error for missing column")
	}
	zero := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(3)},
		&TopK{By: "x", K: 0},
	}}
	if _, err := Run(zero, Config{}); err == nil {
		t.Fatal("expected error for K=0")
	}
}

func TestExplainAndSummary(t *testing.T) {
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: makeBlobs(10)},
		&Process{P: fakeUDF{name: "X", cost: 1, col: "x"}},
		&Barrier{Label: "mat"},
		&Select{Pred: query.MustParse("x>3")},
	}}
	explained := Explain(plan)
	if !strings.Contains(explained, "stage 1:") || !strings.Contains(explained, "stage 2:") {
		t.Fatalf("Explain missing stages:\n%s", explained)
	}
	if !strings.Contains(explained, "Scan") || !strings.Contains(explained, "σ[x>3]") {
		t.Fatalf("Explain missing operators:\n%s", explained)
	}
	res, err := Run(plan, Config{})
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary()
	if !strings.Contains(sum, "Scan") || !strings.Contains(sum, "total: cluster") {
		t.Fatalf("Summary malformed:\n%s", sum)
	}
	if !strings.Contains(sum, "10") {
		t.Fatalf("Summary missing cardinalities:\n%s", sum)
	}
}

// Plan-algebra invariants: inserting a Barrier anywhere never changes rows
// or cluster time; a pass-everything PPFilter is an identity on results.
func TestPlanAlgebraInvariants(t *testing.T) {
	blobs := makeBlobs(200)
	base := []Operator{
		&Scan{Blobs: blobs},
		&Process{P: fakeUDF{name: "A", cost: 3, col: "x"}},
		&Select{Pred: query.MustParse("x>50")},
		&Process{P: fakeUDF{name: "B", cost: 2, col: "x"}},
	}
	ref, err := Run(Plan{Ops: base}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Barrier insertion at every position after the scan.
	for pos := 1; pos <= len(base); pos++ {
		ops := make([]Operator, 0, len(base)+1)
		ops = append(ops, base[:pos]...)
		ops = append(ops, &Barrier{Label: "t"})
		ops = append(ops, base[pos:]...)
		res, err := Run(Plan{Ops: ops}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(ref.Rows) || res.ClusterTime != ref.ClusterTime {
			t.Fatalf("barrier at %d changed semantics: rows %d/%d cluster %v/%v",
				pos, len(res.Rows), len(ref.Rows), res.ClusterTime, ref.ClusterTime)
		}
	}
	// Pass-everything filter is a result identity (it only adds its cost).
	withFilter := []Operator{
		base[0],
		&PPFilter{F: thresholdFilter{col: "x", t: -1, cost: 0.5}},
	}
	withFilter = append(withFilter, base[1:]...)
	res, err := Run(Plan{Ops: withFilter}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(ref.Rows) {
		t.Fatalf("identity filter changed rows: %d vs %d", len(res.Rows), len(ref.Rows))
	}
	if res.ClusterTime != ref.ClusterTime+0.5*float64(len(blobs)) {
		t.Fatalf("identity filter cost accounting wrong: %v vs %v",
			res.ClusterTime, ref.ClusterTime+0.5*float64(len(blobs)))
	}
}

// sumUDF adds s = x + y, reading both through Batch.Lookup.
type sumUDF struct{}

func (sumUDF) Name() string  { return "Sum" }
func (sumUDF) Cost() float64 { return 1 }
func (sumUDF) Apply(b Batch) error {
	vals := b.Column("s")
	for i := range vals {
		x, okx := b.Lookup(i, "x")
		y, oky := b.Lookup(i, "y")
		if !okx || !oky {
			return &RowError{Index: i, Err: fmt.Errorf("row %d: x %v, y %v", i, okx, oky)}
		}
		vals[i] = query.Number(x.Num + y.Num)
	}
	return nil
}

// TestBatchLookupSeesEarlierColumns: a processor reads, through its batch,
// a column its row brought across a stage boundary and one an earlier
// processor of its own stage added, and the row it emits carries all three.
func TestBatchLookupSeesEarlierColumns(t *testing.T) {
	blobs := makeBlobs(2500)
	keys := blob.NewTruthKeys("x", "y")
	for i := range blobs {
		blobs[i].Truth = keys.Row(float64(i), float64(2*i))
	}
	for _, workers := range []int{1, 4} {
		res, err := Run(Plan{Ops: []Operator{
			&Scan{Blobs: blobs},
			&Process{P: fakeUDF{name: "X", cost: 1, col: "x"}},
			&Barrier{Label: "b"},
			&Process{P: fakeUDF{name: "Y", cost: 1, col: "y"}},
			&Process{P: sumUDF{}},
			&Select{Pred: query.MustParse("s>=3000")},
		}}, Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1500 {
			t.Fatalf("workers=%d: %d rows, want 1 500", workers, len(res.Rows))
		}
		for _, r := range res.Rows {
			x, _ := r.Get("x")
			y, _ := r.Get("y")
			s, _ := r.Get("s")
			if x.Num != float64(r.Blob.ID) || y.Num != 2*x.Num || s.Num != 3*x.Num {
				t.Fatalf("workers=%d: blob %d has %v", workers, r.Blob.ID, r.Columns())
			}
		}
	}
}
