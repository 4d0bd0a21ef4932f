package bench

// Integration scenarios mirroring the example queries of §2: Q1 (speeding
// vehicles), Q2 (aggregate traffic volume per intersection), Q4 (vehicles
// seen at one camera and then another) and Q5/Q6-style low-selectivity
// triggers — each run end-to-end through the engine with PPs injected.

import (
	"math"
	"testing"

	"probpred/internal/data"
	"probpred/internal/engine"
	"probpred/internal/query"
	"probpred/internal/udf"
)

func scenarioHarness(t *testing.T) *TrafficHarness {
	t.Helper()
	h, err := NewTrafficHarness(quick)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestScenarioQ1Speeding: find vehicles with speed above a threshold.
func TestScenarioQ1Speeding(t *testing.T) {
	h := scenarioHarness(t)
	pred := query.MustParse("s>60")
	nopPlan, _, err := h.NoPPlan(pred)
	if err != nil {
		t.Fatal(err)
	}
	nop, err := engine.Run(nopPlan, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	plan, dec, err := h.PPPlan(pred, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Inject {
		t.Fatal("speeding query should inject a PP")
	}
	pp, err := engine.Run(plan, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if pp.ClusterTime >= nop.ClusterTime {
		t.Fatal("no saving on Q1")
	}
	if retained(nop, pp) < 0.85 {
		t.Fatalf("Q1 accuracy %v", retained(nop, pp))
	}
}

// TestScenarioQ2VolumePerIntersection: count vehicles per from-intersection
// among the fast ones — grouping after a PP-filtered selection. The PP must
// not distort the per-group distribution beyond its false-negative budget.
func TestScenarioQ2VolumePerIntersection(t *testing.T) {
	h := scenarioHarness(t)
	pred := query.MustParse("s>50")
	build := func(withPP bool) (*engine.Result, error) {
		var ops []engine.Operator
		plan, dec, err := h.PPPlan(pred, 0.98)
		if err != nil {
			return nil, err
		}
		if withPP {
			ops = plan.Ops
		} else {
			nop, _, err := h.NoPPlan(pred)
			if err != nil {
				return nil, err
			}
			ops = nop.Ops
		}
		_ = dec
		// Materialize the grouping column and aggregate.
		iUDF, err := udf.TrafficUDFFor("i", 0, 9)
		if err != nil {
			return nil, err
		}
		ops = append(ops, &engine.Process{P: iUDF},
			&engine.GroupReduce{R: udf.CountReducer{KeyCol: "i"}})
		return engine.Run(engine.Plan{Ops: ops}, engine.Config{})
	}
	truth, err := build(false)
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := build(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(truth.Rows) != len(data.Intersections) {
		t.Fatalf("groups = %d", len(truth.Rows))
	}
	// Compare per-group counts: the filtered aggregate must track the true
	// one within the accuracy budget plus margin.
	truthCounts := map[string]float64{}
	for _, r := range truth.Rows {
		k, _ := r.Get("i")
		c, _ := r.Get("count")
		truthCounts[k.Str] = c.Num
	}
	for _, r := range filtered.Rows {
		k, _ := r.Get("i")
		c, _ := r.Get("count")
		want := truthCounts[k.Str]
		if want == 0 {
			continue
		}
		if ratio := c.Num / want; ratio < 0.85 || ratio > 1.001 {
			t.Fatalf("group %s count ratio %v (PP distorted the aggregate)", k.Str, ratio)
		}
	}
	if filtered.ClusterTime >= truth.ClusterTime {
		t.Fatal("aggregation query saw no saving")
	}
}

// TestScenarioQ4SeenThen: vehicles seen at intersection pt303 and later at
// pt335 — two PP-filtered streams joined by a sequence combiner.
func TestScenarioQ4SeenThen(t *testing.T) {
	h := scenarioHarness(t)
	// Build the "camera C2" side: rows at pt335 with a time column.
	mkSide := func(predStr string, timeOffset float64) ([]engine.Row, float64, error) {
		pred := query.MustParse(predStr)
		plan, dec, err := h.PPPlan(pred, 0.98)
		if err != nil {
			return nil, 0, err
		}
		_ = dec
		ops := append(plan.Ops, &engine.Project{Compute: []engine.ComputedCol{
			{Name: "veh", Fn: func(r engine.Row) (query.Value, error) {
				// A synthetic vehicle identity: blobs with equal ID%97
				// are "the same vehicle" re-observed.
				return query.Number(float64(r.Blob.ID % 97)), nil
			}},
			{Name: "time", Fn: func(r engine.Row) (query.Value, error) {
				return query.Number(float64(r.Blob.ID) + timeOffset), nil
			}},
		}})
		res, err := engine.Run(engine.Plan{Ops: ops}, engine.Config{})
		if err != nil {
			return nil, 0, err
		}
		return res.Rows, res.ClusterTime, nil
	}
	left, lcost, err := mkSide("i=pt303", 0)
	if err != nil {
		t.Fatal(err)
	}
	right, rcost, err := mkSide("i=pt335", 1e6) // later in time
	if err != nil {
		t.Fatal(err)
	}
	if len(left) == 0 || len(right) == 0 {
		t.Skip("degenerate draw")
	}
	comb := &engine.Combine{C: udf.SequenceCombiner{TimeCol: "time"},
		Right: right, LeftKey: "veh", RightKey: "veh"}
	// Run the combine over the PP-filtered left side.
	out, _, err := comb.Exec(left)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("no vehicle seen at pt303 then pt335")
	}
	for _, r := range out {
		first, _ := r.Get("firstSeen")
		then, _ := r.Get("thenSeen")
		if first.Num >= then.Num {
			t.Fatalf("sequence violated: %v >= %v", first.Num, then.Num)
		}
	}
	if lcost <= 0 || rcost <= 0 {
		t.Fatal("missing costs")
	}
}

// TestScenarioTriggerLowSelectivity: a Q5/Q6-style alert — an extremely
// selective predicate where PPs shine the most.
func TestScenarioTriggerLowSelectivity(t *testing.T) {
	h := scenarioHarness(t)
	pred := query.MustParse("t=truck & c=red & s>60")
	nopPlan, _, err := h.NoPPlan(pred)
	if err != nil {
		t.Fatal(err)
	}
	nop, err := engine.Run(nopPlan, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	plan, dec, err := h.PPPlan(pred, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Inject || dec.NumPPs < 2 {
		t.Fatalf("trigger should use multiple PPs: %+v", dec.Expr)
	}
	pp, err := engine.Run(plan, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	speedup := nop.ClusterTime / pp.ClusterTime
	if speedup < 3 {
		t.Fatalf("trigger speed-up only %.2fx", speedup)
	}
	// Latency matters for alerts: the PP plan must also answer faster.
	if pp.Latency >= nop.Latency {
		t.Fatalf("trigger latency not improved: %v vs %v", pp.Latency, nop.Latency)
	}
	if math.IsNaN(speedup) {
		t.Fatal("NaN speedup")
	}
}
