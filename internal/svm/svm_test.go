package svm

import (
	"testing"

	"probpred/internal/mathx"
)

// linearly separable 2-D data: positives have x0+x1 > 1.
func separableData(n int, seed uint64) ([]mathx.Vec, []bool) {
	rng := mathx.NewRNG(seed)
	xs := make([]mathx.Vec, n)
	ys := make([]bool, n)
	for i := range xs {
		x := mathx.Vec{rng.Float64() * 2, rng.Float64() * 2}
		xs[i] = x
		ys[i] = x[0]+x[1] > 1
	}
	return xs, ys
}

func accuracy(m *Model, xs []mathx.Vec, ys []bool) float64 {
	correct := 0
	for i, x := range xs {
		if (m.Score(x) > 0) == ys[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}

func TestTrainSeparable(t *testing.T) {
	xs, ys := separableData(500, 1)
	m, err := Train(xs, ys, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(m, xs, ys); acc < 0.95 {
		t.Fatalf("training accuracy = %v, want >= 0.95", acc)
	}
}

func TestTrainGeneralizes(t *testing.T) {
	xs, ys := separableData(500, 3)
	m, err := Train(xs, ys, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	txs, tys := separableData(500, 5)
	if acc := accuracy(m, txs, tys); acc < 0.93 {
		t.Fatalf("test accuracy = %v, want >= 0.93", acc)
	}
}

func TestTrainDeterministic(t *testing.T) {
	xs, ys := separableData(100, 6)
	m1, err := Train(xs, ys, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(xs, ys, Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1.W {
		if m1.W[i] != m2.W[i] {
			t.Fatal("training not deterministic")
		}
	}
	if m1.B != m2.B {
		t.Fatal("bias not deterministic")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, Config{}); err == nil {
		t.Fatal("expected error for empty set")
	}
	if _, err := Train([]mathx.Vec{{1}}, []bool{true, false}, Config{}); err == nil {
		t.Fatal("expected error for length mismatch")
	}
	if _, err := Train([]mathx.Vec{{1}, {2}}, []bool{true, true}, Config{}); err == nil {
		t.Fatal("expected error for single class")
	}
	if _, err := Train([]mathx.Vec{{1, 2}, {2}}, []bool{true, false}, Config{}); err == nil {
		t.Fatal("expected error for rows of differing length")
	}
}

func TestScoreOrdersByMargin(t *testing.T) {
	xs, ys := separableData(500, 8)
	m, err := Train(xs, ys, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// A deep positive should outscore a deep negative.
	deepPos := m.Score(mathx.Vec{2, 2})
	deepNeg := m.Score(mathx.Vec{0, 0})
	if deepPos <= deepNeg {
		t.Fatalf("Score(2,2)=%v <= Score(0,0)=%v", deepPos, deepNeg)
	}
}

func TestClassWeightShiftsBoundary(t *testing.T) {
	// Rare-positive data: weighting positives should increase recall.
	rng := mathx.NewRNG(10)
	var xs []mathx.Vec
	var ys []bool
	for i := 0; i < 1000; i++ {
		x := mathx.Vec{rng.NormFloat64(), rng.NormFloat64()}
		label := x[0] > 1.3 // ~10% positive
		xs = append(xs, x)
		ys = append(ys, label)
	}
	recall := func(m *Model) float64 {
		tp, p := 0, 0
		for i, x := range xs {
			if ys[i] {
				p++
				if m.Score(x) > 0 {
					tp++
				}
			}
		}
		return float64(tp) / float64(p)
	}
	plain, err := Train(xs, ys, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	weighted, err := Train(xs, ys, Config{Seed: 11, ClassWeightPos: 5})
	if err != nil {
		t.Fatal(err)
	}
	if recall(weighted) < recall(plain) {
		t.Fatalf("weighted recall %v < plain recall %v", recall(weighted), recall(plain))
	}
}

func TestCostScalesWithDim(t *testing.T) {
	small := &Model{W: make(mathx.Vec, 10)}
	big := &Model{W: make(mathx.Vec, 1000)}
	if big.Cost() <= small.Cost() {
		t.Fatal("cost should grow with dimension")
	}
	if small.Name() != "SVM" {
		t.Fatal("bad name")
	}
}
