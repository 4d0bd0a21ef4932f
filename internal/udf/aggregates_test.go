package udf

import (
	"math"
	"testing"

	"probpred/internal/data"
	"probpred/internal/engine"
	"probpred/internal/query"
)

// TestQ2StyleAggregation runs the §2 Q2 shape: average speed per from-
// intersection, computed after UDF materialization — with and without a PP
// on an implicit filter (frames with vehicles above a speed are relevant).
func TestQ2StyleAggregation(t *testing.T) {
	blobs := data.Traffic(data.TrafficConfig{Rows: 2000, Seed: 1})
	speedUDF, err := TrafficUDFFor("s", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	fromUDF, err := TrafficUDFFor("i", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan := engine.Plan{Ops: []engine.Operator{
		&engine.Scan{Blobs: blobs},
		&engine.Process{P: VehDetector{}},
		&engine.Process{P: speedUDF},
		&engine.Process{P: fromUDF},
		&engine.GroupReduce{R: AvgReducer{KeyCol: "i", ValCol: "s"}},
	}}
	res, err := engine.Run(plan, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(data.Intersections) {
		t.Fatalf("groups = %d, want %d", len(res.Rows), len(data.Intersections))
	}
	// Cross-check one group against ground truth.
	want := map[string][]float64{}
	for _, b := range blobs {
		iv, _ := data.TrafficValue(b, "i")
		sv, _ := b.TruthVal("s")
		want[iv.Str] = append(want[iv.Str], sv)
	}
	for _, r := range res.Rows {
		key, _ := r.Get("i")
		avg, _ := r.Get("avg_s")
		sum := 0.0
		for _, s := range want[key.Str] {
			sum += s
		}
		truth := sum / float64(len(want[key.Str]))
		if math.Abs(avg.Num-truth) > 1e-9 {
			t.Fatalf("avg speed for %s = %v, want %v", key.Str, avg.Num, truth)
		}
	}
}

func TestCountReducer(t *testing.T) {
	blobs := data.Traffic(data.TrafficConfig{Rows: 1000, Seed: 4})
	typeUDF, err := TrafficUDFFor("t", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	plan := engine.Plan{Ops: []engine.Operator{
		&engine.Scan{Blobs: blobs},
		&engine.Process{P: typeUDF},
		&engine.GroupReduce{R: CountReducer{KeyCol: "t"}},
	}}
	res, err := engine.Run(plan, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, r := range res.Rows {
		c, err := r.Get("count")
		if err != nil {
			t.Fatal(err)
		}
		total += c.Num
	}
	if int(total) != len(blobs) {
		t.Fatalf("counts sum to %v, want %d", total, len(blobs))
	}
}

func TestAvgReducerNonNumeric(t *testing.T) {
	rows := []engine.Row{engine.Row{}.With("k", query.Str("a")).With("v", query.Str("oops"))}
	_, err := AvgReducer{KeyCol: "k", ValCol: "v"}.Reduce("a", rows)
	if err == nil {
		t.Fatal("expected error for non-numeric average")
	}
}

// TestQ4StyleSequence runs the §2 Q4 shape: vehicles seen at camera C1 and
// then at C2, joined by vehicle identity with a time-ordered combiner.
func TestQ4StyleSequence(t *testing.T) {
	mkRow := func(id string, ts float64) engine.Row {
		return engine.Row{}.With("veh", query.Str(id)).With("time", query.Number(ts))
	}
	// Camera C1 observations (left) and C2 observations (right).
	c1 := []engine.Row{mkRow("a", 1), mkRow("b", 9), mkRow("c", 4)}
	c2 := []engine.Row{mkRow("a", 5), mkRow("b", 2), mkRow("d", 7)}
	comb := SequenceCombiner{TimeCol: "time"}
	var out []engine.Row
	for _, id := range []string{"a", "b", "c", "d"} {
		var l, r []engine.Row
		for _, row := range c1 {
			if v, _ := row.Get("veh"); v.Str == id {
				l = append(l, row)
			}
		}
		for _, row := range c2 {
			if v, _ := row.Get("veh"); v.Str == id {
				r = append(r, row)
			}
		}
		if len(l) == 0 || len(r) == 0 {
			continue
		}
		rows, err := comb.Combine(id, l, r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rows...)
	}
	// Only "a" was at C1 (t=1) before C2 (t=5); "b" went the other way.
	if len(out) != 1 {
		t.Fatalf("matches = %d, want 1", len(out))
	}
	veh, _ := out[0].Get("veh")
	if veh.Str != "a" {
		t.Fatalf("matched %q, want a", veh.Str)
	}
	first, _ := out[0].Get("firstSeen")
	then, _ := out[0].Get("thenSeen")
	if first.Num != 1 || then.Num != 5 {
		t.Fatalf("times = %v, %v", first.Num, then.Num)
	}
}

func TestSequenceCombinerViaEngine(t *testing.T) {
	mk := func(id string, ts float64) engine.Row {
		return engine.Row{}.With("veh", query.Str(id)).With("time", query.Number(ts))
	}
	right := []engine.Row{mk("x", 10), mk("y", 1)}
	// The engine's Combine operator needs a left input produced by a plan;
	// use a Project over scanned blobs to fabricate it.
	blobs := data.Traffic(data.TrafficConfig{Rows: 2, Seed: 6})
	plan := engine.Plan{Ops: []engine.Operator{
		&engine.Scan{Blobs: blobs},
		&engine.Project{Compute: []engine.ComputedCol{
			{Name: "veh", Fn: func(r engine.Row) (query.Value, error) {
				return query.Str([]string{"x", "y"}[r.Blob.ID%2]), nil
			}},
			{Name: "time", Fn: func(r engine.Row) (query.Value, error) {
				return query.Number(float64(2 + r.Blob.ID)), nil
			}},
		}},
		&engine.Combine{C: SequenceCombiner{TimeCol: "time"},
			Right: right, LeftKey: "veh", RightKey: "veh"},
	}}
	res, err := engine.Run(plan, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// x: left t=2 < right t=10 → match; y: left t=3 > right t=1 → no.
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
}

func TestReducerMetadata(t *testing.T) {
	if (CountReducer{KeyCol: "k"}).Cost() != 0.5 {
		t.Fatal("default count cost")
	}
	if (AvgReducer{KeyCol: "k", ValCol: "v", CostMS: 2}).Cost() != 2 {
		t.Fatal("explicit avg cost")
	}
	if (SequenceCombiner{}).Cost() != 0.2 {
		t.Fatal("default combiner cost")
	}
}
