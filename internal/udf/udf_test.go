package udf

import (
	"errors"
	"testing"

	"probpred/internal/data"
	"probpred/internal/engine"
	"probpred/internal/query"
)

func trafficRows(t *testing.T, n int) []engine.Row {
	t.Helper()
	blobs := data.Traffic(data.TrafficConfig{Rows: n, Seed: 1})
	rows := make([]engine.Row, n)
	for i, b := range blobs {
		rows[i] = engine.NewRow(b)
	}
	return rows
}

func TestTrafficAttributeExact(t *testing.T) {
	rows := trafficRows(t, 200)
	u, err := TrafficUDFFor("t", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := engine.ApplyRows(u, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(rows) {
		t.Fatalf("output rows = %d, want %d", len(out), len(rows))
	}
	for i, r := range rows {
		got, err := out[i].Get("t")
		if err != nil {
			t.Fatal(err)
		}
		want, err := data.TrafficValue(r.Blob, "t")
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("zero-error UDF mislabeled: %v vs %v", got, want)
		}
	}
}

func TestTrafficAttributeErrorRate(t *testing.T) {
	rows := trafficRows(t, 2000)
	u := &TrafficAttribute{Col: "c", UDFName: "ColorClassifier", CostMS: 1, ErrRate: 0.2, Seed: 7}
	out, _, err := engine.ApplyRows(u, rows)
	if err != nil {
		t.Fatal(err)
	}
	wrong := 0
	for i, r := range rows {
		got, _ := out[i].Get("c")
		want, _ := data.TrafficValue(r.Blob, "c")
		if !got.Equal(want) {
			wrong++
		}
	}
	frac := float64(wrong) / float64(len(rows))
	if frac < 0.15 || frac > 0.25 {
		t.Fatalf("error rate = %v, want ~0.2", frac)
	}
}

func TestTrafficAttributeNumericPerturbInRange(t *testing.T) {
	rows := trafficRows(t, 500)
	u := &TrafficAttribute{Col: "s", UDFName: "SpeedEstimator", CostMS: 1, ErrRate: 1, Seed: 9}
	out, _, err := engine.ApplyRows(u, rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		got, _ := out[i].Get("s")
		if !got.IsNum || got.Num < 0 || got.Num > 80 {
			t.Fatalf("perturbed speed out of range: %v", got)
		}
	}
}

func TestTrafficUDFForUnknownColumn(t *testing.T) {
	if _, err := TrafficUDFFor("z", 0, 0); err == nil {
		t.Fatal("expected error")
	}
}

func TestTrafficPipeline(t *testing.T) {
	pred := query.MustParse("t=SUV & c=red & s>60")
	procs, err := TrafficPipeline(pred, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Detector + 3 attribute UDFs.
	if len(procs) != 4 {
		t.Fatalf("pipeline length = %d", len(procs))
	}
	if procs[0].Name() != "VehDetector" {
		t.Fatalf("first processor = %s", procs[0].Name())
	}
	want := float64(VehDetectorCost + TypeClassifierCost + ColorClassifierCost + SpeedEstimatorCost)
	if got := PipelineCost(procs); got != want {
		t.Fatalf("pipeline cost = %v, want %v", got, want)
	}
}

func TestTrafficPipelineEndToEnd(t *testing.T) {
	blobs := data.Traffic(data.TrafficConfig{Rows: 500, Seed: 2})
	pred := query.MustParse("t=SUV & c=red")
	procs, err := TrafficPipeline(pred, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	ops := []engine.Operator{&engine.Scan{Blobs: blobs}}
	for _, p := range procs {
		ops = append(ops, &engine.Process{P: p})
	}
	ops = append(ops, &engine.Select{Pred: pred})
	res, err := engine.Run(engine.Plan{Ops: ops}, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Ground truth count.
	set, err := data.TrafficSet(blobs, pred)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != set.Positives() {
		t.Fatalf("query returned %d rows, truth has %d", len(res.Rows), set.Positives())
	}
}

func TestCategoryClassifier(t *testing.T) {
	d := data.LSHTC(data.LSHTCConfig{Docs: 300, Seed: 3})
	c := &CategoryClassifier{Dataset: d, Cat: 2, CostMS: 10}
	rows := make([]engine.Row, len(d.Blobs))
	for i, b := range d.Blobs {
		rows[i] = engine.NewRow(b)
	}
	out, _, err := engine.ApplyRows(c, rows)
	if err != nil {
		t.Fatal(err)
	}
	match := 0
	for i := range d.Blobs {
		v, _ := out[i].Get(ColName(2))
		if (v.Num == 1) != d.Members[2][i] {
			t.Fatalf("classifier disagrees with membership at %d", i)
		}
		if v.Num == 1 {
			match++
		}
	}
	if match == 0 {
		t.Fatal("no members found")
	}
}

func TestCategoryClassifierOutOfRange(t *testing.T) {
	d := data.LSHTC(data.LSHTCConfig{Docs: 10, Seed: 4})
	c := &CategoryClassifier{Dataset: d, Cat: 0, CostMS: 1}
	bad := engine.NewRow(d.Blobs[0])
	bad.Blob.ID = 999
	out, _, err := engine.ApplyRows(c, []engine.Row{engine.NewRow(d.Blobs[1]), bad, engine.NewRow(d.Blobs[2])})
	var re *engine.RowError
	if !errors.As(err, &re) || re.Index != 1 {
		t.Fatalf("err = %v, want a RowError blaming row 1", err)
	}
	if len(out) != 1 || out[0].Blob.ID != d.Blobs[1].ID {
		t.Fatalf("a failed batch kept %d rows, want the one before the failure", len(out))
	}
}

func TestFrameObjectDetector(t *testing.T) {
	v := data.Coral(data.CoralConfig{Frames: 200, Seed: 5})
	det := FrameObjectDetector{}
	if det.Cost() != 500 {
		t.Fatalf("default cost = %v", det.Cost())
	}
	rows := make([]engine.Row, 100)
	for i, f := range v.Frames[:100] {
		rows[i] = engine.NewRow(f)
	}
	out, _, err := engine.ApplyRows(det, rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		got, _ := out[i].Get("object")
		if (got.Num == 1) != v.HasObject[i] {
			t.Fatalf("detector wrong at frame %d", i)
		}
	}
}

// TestCategoryClassifierRaceUnderWorkers runs a classifier with a live error
// process through the engine on four workers; under -race it is the check
// that concurrent batches share its random stream safely. Every row draws
// once from that stream whatever the interleaving, so the number of flipped
// outputs must equal a one-worker run's.
func TestCategoryClassifierRaceUnderWorkers(t *testing.T) {
	d := data.LSHTC(data.LSHTCConfig{Docs: 2000, Seed: 11})
	flips := func(workers int) int {
		c := &CategoryClassifier{Dataset: d, Cat: 1, CostMS: 1, ErrRate: 0.3, Seed: 3}
		plan := engine.Plan{Ops: []engine.Operator{&engine.Scan{Blobs: d.Blobs}, &engine.Process{P: c}}}
		res, err := engine.Run(plan, engine.Config{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != len(d.Blobs) {
			t.Fatalf("workers=%d: %d rows, want %d", workers, len(res.Rows), len(d.Blobs))
		}
		n := 0
		for _, r := range res.Rows {
			v, err := r.Get(ColName(1))
			if err != nil {
				t.Fatal(err)
			}
			if (v.Num == 1) != d.Members[1][r.Blob.ID] {
				n++
			}
		}
		return n
	}
	one, four := flips(1), flips(4)
	if one != four {
		t.Fatalf("flipped outputs: %d on one worker, %d on four", one, four)
	}
	if share := float64(four) / float64(len(d.Blobs)); share < 0.25 || share > 0.35 {
		t.Fatalf("flip share %v, want about 0.3", share)
	}
}
