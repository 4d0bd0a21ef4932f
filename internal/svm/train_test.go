package svm

import (
	"fmt"
	"math"
	"testing"

	"probpred/internal/data"
	"probpred/internal/mathx"
	"probpred/internal/query"
)

// gaussData draws n rows of d normal features, feature j scaled by
// 2^(j%7−3), labeled by a noisy random hyperplane. Rows 0 and 1 are one
// positive and one negative, so every n ≥ 2 has both classes.
func gaussData(n, d int, seed uint64) ([]mathx.Vec, []bool) {
	rng := mathx.NewRNG(seed)
	dir := make(mathx.Vec, d)
	for j := range dir {
		dir[j] = rng.NormFloat64()
	}
	xs := make([]mathx.Vec, n)
	ys := make([]bool, n)
	for i := range xs {
		x := make(mathx.Vec, d)
		for j := range x {
			x[j] = math.Ldexp(rng.NormFloat64(), j%7-3)
		}
		xs[i], ys[i] = x, mathx.Dot(dir, x)+0.5*rng.NormFloat64() > 0.3
	}
	ys[0], ys[1] = true, false
	return xs, ys
}

// trafficData labels the 32-feature traffic blobs by one clause, the shape
// of the benchmark's SVM corpus.
func trafficData(tb testing.TB, clause string, n int, seed uint64) ([]mathx.Vec, []bool) {
	tb.Helper()
	pred, err := query.Parse(clause)
	if err != nil {
		tb.Fatal(err)
	}
	set, err := data.TrafficSet(data.Traffic(data.TrafficConfig{Rows: n, Seed: seed}), pred)
	if err != nil {
		tb.Fatal(err)
	}
	xs := make([]mathx.Vec, set.Len())
	for i, b := range set.Blobs {
		xs[i] = b.DenseVec()
	}
	return xs, set.Labels
}

// sameModel reports the first weight, or the bias, in which a and b differ
// as IEEE bit patterns.
func sameModel(a, b *Model) (string, bool) {
	if len(a.W) != len(b.W) {
		return fmt.Sprintf("length %d vs %d", len(a.W), len(b.W)), false
	}
	for j := range a.W {
		if math.Float64bits(a.W[j]) != math.Float64bits(b.W[j]) {
			return fmt.Sprintf("W[%d]: %v vs %v", j, a.W[j], b.W[j]), false
		}
	}
	if math.Float64bits(a.B) != math.Float64bits(b.B) {
		return fmt.Sprintf("B: %v vs %v", a.B, b.B), false
	}
	return "", true
}

// TestTrainMatchesReference holds Train's one-pass step to the reference
// loop in ref_test.go, every weight and the bias bit for bit: d ∈ {1, 8,
// 9, 32, 33}, n ∈ {2, 50, 2 400}, 1 and 15 epochs, positive class weight
// 1 and 3, from a cold start, from a warm start and from a warm model of
// the wrong dimension (which falls back to a cold start); and on traffic
// rows labeled by corpus clauses.
func TestTrainMatchesReference(t *testing.T) {
	check := func(t *testing.T, xs []mathx.Vec, ys []bool, cfg Config) {
		t.Helper()
		got, err := Train(xs, ys, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if where, ok := sameModel(got, trainRef(xs, ys, cfg)); !ok {
			t.Fatalf("one-pass step diverges from the reference at %s", where)
		}
	}
	for _, d := range []int{1, 8, 9, 32, 33} {
		for _, n := range []int{2, 50, 2400} {
			xs, ys := gaussData(n, d, uint64(100*d+n))
			for _, epochs := range []int{1, 15} {
				for _, cw := range []float64{1, 3} {
					for _, start := range []struct {
						name string
						warm func() *Model
					}{
						{"cold", func() *Model { return nil }},
						{"warm", func() *Model {
							w, _ := gaussData(2, d+1, uint64(d))
							return &Model{W: w[0][:d], B: w[0][d]}
						}},
						{"mismatch", func() *Model { return &Model{W: make(mathx.Vec, d+1), B: 1} }},
					} {
						name := fmt.Sprintf("d=%d/n=%d/epochs=%d/cw=%v/%s", d, n, epochs, cw, start.name)
						t.Run(name, func(t *testing.T) {
							check(t, xs, ys, Config{Epochs: epochs, ClassWeightPos: cw, Seed: uint64(epochs + n), Warm: start.warm()})
						})
					}
				}
			}
		}
	}
	for _, clause := range []string{"t=SUV", "c=red", "s>60", "i=pt211"} {
		t.Run("traffic/"+clause, func(t *testing.T) {
			xs, ys := trafficData(t, clause, 2400, 17)
			check(t, xs, ys, Config{Epochs: 15, ClassWeightPos: 2, Seed: 3})
		})
	}
}

// TestTrainAllocBudget holds Train to allocations made once per call: the
// weights, their average and the model, none per example or step.
func TestTrainAllocBudget(t *testing.T) {
	allocs := func(n int) float64 {
		xs, ys := gaussData(n, 32, 5)
		return testing.AllocsPerRun(3, func() {
			if _, err := Train(xs, ys, Config{Epochs: 2, Seed: 5}); err != nil {
				t.Fatal(err)
			}
		})
	}
	const budget = 3
	small, large := allocs(50), allocs(2400)
	if small != large || large > budget {
		t.Fatalf("Train allocated %v times for 50 rows and %v for 2 400, want the same count ≤ %d", small, large, budget)
	}
}

// BenchmarkTrain trains one PP of the benchmark's SVM corpus shape, 2 400
// rows and 15 epochs, at d = 8 (a PCA-reduced input) and d = 32 (the raw
// traffic features), with Train's one-pass step and with the reference.
func BenchmarkTrain(b *testing.B) {
	for _, d := range []int{8, 32} {
		xs, ys := gaussData(2400, d, 61)
		cfg := Config{Epochs: 15, Seed: 7}
		for _, c := range []struct {
			name  string
			train func([]mathx.Vec, []bool, Config) *Model
		}{
			{"onepass", func(xs []mathx.Vec, ys []bool, cfg Config) *Model {
				m, err := Train(xs, ys, cfg)
				if err != nil {
					b.Fatal(err)
				}
				return m
			}},
			{"reference", trainRef},
		} {
			b.Run(fmt.Sprintf("d=%d/%s", d, c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					c.train(xs, ys, cfg)
				}
			})
		}
	}
}
