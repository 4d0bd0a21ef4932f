package optimizer

import (
	"strings"
	"testing"

	"probpred/internal/blob"
	"probpred/internal/engine"
	"probpred/internal/query"
	"probpred/internal/testkit"
)

// costProc materializes one attribute column from the mini-blob encoding.
type costProc struct {
	col  string
	cost float64
}

func (p costProc) Name() string  { return "UDF_" + p.col }
func (p costProc) Cost() float64 { return p.cost }
func (p costProc) Apply(b engine.Batch) error {
	vals := b.Column(p.col)
	for i := range vals {
		v, ok := testkit.Lookup(b.Blob(i))(p.col)
		if !ok {
			b.Repeat(i, 0)
		}
		vals[i] = v
	}
	return nil
}

func basePlan(blobs []blob.Blob, pred query.Pred, extra ...engine.Operator) engine.Plan {
	ops := []engine.Operator{
		&engine.Scan{Blobs: blobs},
		&engine.Process{P: costProc{col: "t", cost: 30}},
		&engine.Process{P: costProc{col: "c", cost: 25}},
	}
	ops = append(ops, extra...)
	ops = append(ops, &engine.Select{Pred: pred})
	return engine.Plan{Ops: ops}
}

func TestInjectIntoPlanBasic(t *testing.T) {
	val := testkit.Blobs(1500, 41)
	opt := New(miniCorpus(t, val))
	pred := query.MustParse("t=SUV & c=red")
	plan := basePlan(val, pred)
	res, err := opt.InjectIntoPlan(plan, Options{Accuracy: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Injected {
		t.Fatalf("not injected: %s", res.Reason)
	}
	// UDFCost must have been summed from the shortcut operators (30+25).
	if res.Decision.BaselineCost != 55 {
		t.Fatalf("baseline cost = %v, want 55", res.Decision.BaselineCost)
	}
	// The filter sits right after the scan.
	if _, ok := res.Plan.Ops[1].(*engine.PPFilter); !ok {
		t.Fatalf("op[1] = %T, want PPFilter", res.Plan.Ops[1])
	}
	// The transformed plan produces a subset of the original's rows and
	// costs less.
	orig, err := engine.Run(plan, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	injected, err := engine.Run(res.Plan, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if injected.ClusterTime >= orig.ClusterTime {
		t.Fatalf("no cluster-time saving: %v vs %v", injected.ClusterTime, orig.ClusterTime)
	}
	if len(injected.Rows) > len(orig.Rows) {
		t.Fatal("PP added rows")
	}
}

func TestInjectIntoPlanRenameRule(t *testing.T) {
	// The query predicate uses the post-projection name vehType; the
	// pushdown must unwind the rename so PP[t=SUV] matches.
	val := testkit.Blobs(1500, 42)
	opt := New(miniCorpus(t, val))
	pred := query.MustParse("vehType=SUV")
	plan := basePlan(val, pred, &engine.Project{Rename: map[string]string{"t": "vehType"}})
	res, err := opt.InjectIntoPlan(plan, Options{Accuracy: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Injected {
		t.Fatalf("not injected: %s", res.Reason)
	}
	if res.RewrittenPred.String() != "t=SUV" {
		t.Fatalf("rewritten pred = %q", res.RewrittenPred)
	}
	if !strings.Contains(res.Decision.Expr, "PP[t=SUV]") {
		t.Fatalf("decision = %s", res.Decision.Expr)
	}
}

func TestInjectIntoPlanComputedColumnBlocks(t *testing.T) {
	val := testkit.Blobs(500, 43)
	opt := New(miniCorpus(t, val))
	pred := query.MustParse("fast=yes")
	plan := basePlan(val, pred, &engine.Project{Compute: []engine.ComputedCol{{
		Name: "fast",
		Fn: func(r engine.Row) (query.Value, error) {
			return query.Str("yes"), nil
		},
	}}})
	res, err := opt.InjectIntoPlan(plan, Options{Accuracy: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected {
		t.Fatal("must not push below an opaque computed column")
	}
	if !strings.Contains(res.Reason, "computed column") {
		t.Fatalf("reason = %q", res.Reason)
	}
}

func TestInjectIntoPlanFKJoinRule(t *testing.T) {
	val := testkit.Blobs(1500, 44)
	opt := New(miniCorpus(t, val))
	dim := []engine.Row{
		engine.Row{}.With("t", query.Str("SUV")).With("class", query.Str("large")),
		engine.Row{}.With("t", query.Str("sedan")).With("class", query.Str("small")),
		engine.Row{}.With("t", query.Str("truck")).With("class", query.Str("large")),
		engine.Row{}.With("t", query.Str("van")).With("class", query.Str("large")),
	}
	join := &engine.FKJoin{LeftKey: "t", RightKey: "t", Table: dim}

	// Fact-side predicate: pushes below the join.
	res, err := opt.InjectIntoPlan(basePlan(val, query.MustParse("t=SUV"), join), Options{Accuracy: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Injected {
		t.Fatalf("fact-side predicate should push below FK join: %s", res.Reason)
	}

	// Dimension-side predicate: blocked.
	res, err = opt.InjectIntoPlan(basePlan(val, query.MustParse("class=large"), join), Options{Accuracy: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected {
		t.Fatal("dimension-side predicate must not push below the join")
	}
	if !strings.Contains(res.Reason, "dimension column") {
		t.Fatalf("reason = %q", res.Reason)
	}
}

func TestInjectIntoPlanGroupingBlocks(t *testing.T) {
	val := testkit.Blobs(500, 45)
	opt := New(miniCorpus(t, val))
	plan := engine.Plan{Ops: []engine.Operator{
		&engine.Scan{Blobs: val},
		&engine.Process{P: costProc{col: "t", cost: 30}},
		&engine.GroupReduce{R: keyCount{}},
		&engine.Select{Pred: query.MustParse("t=SUV")},
	}}
	res, err := opt.InjectIntoPlan(plan, Options{Accuracy: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected {
		t.Fatal("must not push below a grouping operator")
	}
}

type keyCount struct{}

func (keyCount) Name() string  { return "KeyCount" }
func (keyCount) Cost() float64 { return 1 }
func (keyCount) Key(r engine.Row) (string, error) {
	v, err := r.Get("t")
	if err != nil {
		return "", err
	}
	return v.String(), nil
}
func (keyCount) Reduce(key string, rows []engine.Row) ([]engine.Row, error) {
	out := rows[0]
	out = out.With("count", query.Number(float64(len(rows))))
	return []engine.Row{out}, nil
}

func TestInjectIntoPlanNoSelect(t *testing.T) {
	val := testkit.Blobs(100, 46)
	opt := New(miniCorpus(t, val))
	plan := engine.Plan{Ops: []engine.Operator{&engine.Scan{Blobs: val}}}
	res, err := opt.InjectIntoPlan(plan, Options{Accuracy: 0.95})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected || !strings.Contains(res.Reason, "no selection") {
		t.Fatalf("res = %+v", res)
	}
}

func TestInjectIntoPlanSelectBelowSelect(t *testing.T) {
	// A second σ between the seed point and the scan: the placeholder
	// passes below it (independence affects estimates, not soundness).
	val := testkit.Blobs(1500, 47)
	opt := New(miniCorpus(t, val))
	plan := engine.Plan{Ops: []engine.Operator{
		&engine.Scan{Blobs: val},
		&engine.Process{P: costProc{col: "s", cost: 20}},
		&engine.Select{Pred: query.MustParse("s>30")},
		&engine.Process{P: costProc{col: "t", cost: 30}},
		&engine.Select{Pred: query.MustParse("t=SUV")},
	}}
	// Seeding happens at the FIRST select; its predicate (s>30) is pushed
	// below only the s-UDF.
	res, err := opt.InjectIntoPlan(plan, Options{Accuracy: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Injected {
		if _, ok := res.Plan.Ops[1].(*engine.PPFilter); !ok {
			t.Fatalf("filter not after scan: %T", res.Plan.Ops[1])
		}
	}
	// Whether or not injection pays off, pushdown itself must not error and
	// the rewritten predicate must be the seeded one.
	if res.RewrittenPred == nil || res.RewrittenPred.String() != "s>30" {
		t.Fatalf("rewritten = %v", res.RewrittenPred)
	}
}
