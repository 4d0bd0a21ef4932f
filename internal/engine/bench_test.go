package engine

import (
	"testing"

	"probpred/internal/blob"
	"probpred/internal/query"
)

// passThrough is a detector that emits every row unchanged, as the traffic
// pipeline's VehDetector does.
type passThrough struct{}

func (passThrough) Name() string      { return "Detector" }
func (passThrough) Cost() float64     { return 1 }
func (passThrough) Apply(Batch) error { return nil }

// BenchmarkRowStage times one run of the shape a warm traffic query takes
// through the engine: Scan over 20 000 blobs → a PP filter passing 22 % →
// a pass-through detector → two UDFs → a select keeping half the survivors.
// Run it with -benchmem: B/op and allocs/op are the row stage's footprint.
func BenchmarkRowStage(b *testing.B) {
	const n = 20000
	keys := blob.NewTruthKeys("x", "y")
	truth := keys.Rows(n)
	blobs := make([]blob.Blob, n)
	for i := range blobs {
		truth[i].Vals[0], truth[i].Vals[1] = float64(i), float64(i%100)
		blobs[i] = blob.Blob{ID: i, Truth: &truth[i]}
	}
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: blobs},
		&PPFilter{F: thresholdFilter{col: "x", t: n*0.78 - 1, cost: 1}},
		&Process{P: passThrough{}},
		&Process{P: fakeUDF{name: "X", cost: 1, col: "x"}},
		&Process{P: fakeUDF{name: "Y", cost: 1, col: "y"}},
		&Select{Pred: query.MustParse("y>=50")},
	}}
	b.ReportAllocs()
	for range b.N {
		res, err := Run(plan, Config{})
		if err != nil || len(res.Rows) != n*22/100/2 {
			b.Fatalf("%v rows, err %v", len(res.Rows), err)
		}
	}
}

// BenchmarkRowStageCategorical is BenchmarkRowStage with categorical UDFs,
// the columns of most traffic predicates: Scan over 20 000 blobs → a PP
// filter passing 22 % → a pass-through detector → a type and a color
// classifier of four values each → σ[t=SUV | c=red], keeping 7 of every 16
// survivors. Its emitted rows hold seven distinct pairs of column values.
func BenchmarkRowStageCategorical(b *testing.B) {
	const n = 20000
	truth := blob.NewTruthKeys("x").Rows(n)
	blobs := make([]blob.Blob, n)
	tv, cv := make([]query.Value, n), make([]query.Value, n)
	for i := range blobs {
		truth[i].Vals[0] = float64(i)
		blobs[i] = blob.Blob{ID: i, Truth: &truth[i]}
		tv[i] = query.Str([]string{"car", "SUV", "truck", "van"}[i%4])
		cv[i] = query.Str([]string{"red", "white", "black", "blue"}[i/4%4])
	}
	plan := Plan{Ops: []Operator{
		&Scan{Blobs: blobs},
		&PPFilter{F: thresholdFilter{col: "x", t: n*0.78 - 1, cost: 1}},
		&Process{P: passThrough{}},
		&Process{P: tableUDF{col: "t", vals: tv}},
		&Process{P: tableUDF{col: "c", vals: cv}},
		&Select{Pred: query.MustParse("t=SUV | c=red")},
	}}
	b.ReportAllocs()
	for range b.N {
		res, err := Run(plan, Config{})
		if err != nil || len(res.Rows) != n*22/100*7/16 {
			b.Fatalf("%v rows, err %v", len(res.Rows), err)
		}
	}
}
