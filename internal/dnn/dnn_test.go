package dnn

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"probpred/internal/mathx"
)

// xorData is the canonical non-linearly-separable problem.
func xorData(n int, seed uint64) ([]mathx.Vec, []bool) {
	rng := mathx.NewRNG(seed)
	var xs []mathx.Vec
	var ys []bool
	for i := 0; i < n; i++ {
		a := rng.Float64()*2 - 1
		b := rng.Float64()*2 - 1
		xs = append(xs, mathx.Vec{a, b})
		ys = append(ys, a*b > 0)
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

func TestTrainXOR(t *testing.T) {
	xs, ys := xorData(600, 1)
	m, err := Train(xs, ys, Config{Hidden: []int{16, 16}, Epochs: 60, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	txs, tys := xorData(300, 3)
	if acc := accuracy(m, txs, tys); acc < 0.9 {
		t.Fatalf("XOR test accuracy = %v, want >= 0.9 (must beat any linear model)", acc)
	}
}

func TestTrainLinear(t *testing.T) {
	rng := mathx.NewRNG(4)
	var xs []mathx.Vec
	var ys []bool
	for i := 0; i < 300; i++ {
		x := mathx.Vec{rng.NormFloat64(), rng.NormFloat64()}
		xs = append(xs, x)
		ys = append(ys, x[0]+x[1] > 0)
	}
	m, err := Train(xs, ys, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if acc := accuracy(m, xs, ys); acc < 0.95 {
		t.Fatalf("linear accuracy = %v", acc)
	}
}

func TestDeterministic(t *testing.T) {
	xs, ys := xorData(100, 6)
	m1, err := Train(xs, ys, Config{Epochs: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(xs, ys, Config{Epochs: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	probe := mathx.Vec{0.3, -0.4}
	if m1.Score(probe) != m2.Score(probe) {
		t.Fatal("DNN training not deterministic")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	xs, ys := xorData(100, 8)
	m1, _ := Train(xs, ys, Config{Epochs: 2, Seed: 1})
	m2, _ := Train(xs, ys, Config{Epochs: 2, Seed: 2})
	probe := mathx.Vec{0.3, -0.4}
	if m1.Score(probe) == m2.Score(probe) {
		t.Fatal("different seeds produced identical models")
	}
}

func TestTrainErrors(t *testing.T) {
	two := []mathx.Vec{{1, 2}, {3, 4}}
	mixed := []bool{true, false}
	xor, xorYs := xorData(40, 3)
	for _, c := range []struct {
		name string
		xs   []mathx.Vec
		ys   []bool
		cfg  Config
		want string // a substring of the error, where it matters
	}{
		{"empty set", nil, nil, Config{}, ""},
		{"label count mismatch", []mathx.Vec{{1}}, mixed, Config{}, ""},
		{"single class", []mathx.Vec{{1}, {2}}, []bool{true, true}, Config{}, ""},
		{"ragged rows", []mathx.Vec{{1, 2}, {3}}, mixed, Config{}, ""},
		{"ragged later row", []mathx.Vec{{1, 2}, {3, 4}, {5, 6, 7}}, []bool{true, false, true}, Config{}, ""},
		{"negative batch size", two, mixed, Config{BatchSize: -1}, ""},
		{"negative epochs", two, mixed, Config{Epochs: -3}, ""},
		{"zero-width hidden layer", two, mixed, Config{Hidden: []int{4, 0}}, ""},
		{"negative hidden width", two, mixed, Config{Hidden: []int{-2}}, ""},
		// Weights overflow to ±Inf and then NaN; the error names the epoch
		// where a parameter first left the finite range.
		{"diverging step", xor, xorYs, Config{LearningRate: 1e6, BatchSize: 1, Seed: 1}, "epoch 3 of 30"},
		{"diverging in the first epoch", xor, xorYs, Config{LearningRate: 1e12, BatchSize: 1, Seed: 1}, "epoch 1 of 30"},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := Train(c.xs, c.ys, c.cfg)
			if err == nil || m != nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Train = (%v, %v), want (nil, an error containing %q)", m, err, c.want)
			}
		})
	}
}

func TestParamsCount(t *testing.T) {
	xs, ys := xorData(50, 9)
	m, err := Train(xs, ys, Config{Hidden: []int{8}, Epochs: 1, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Layers: 2->8 (2*8 + 8) and 8->1 (8 + 1) = 24 + 9 = 33.
	if m.Params() != 33 {
		t.Fatalf("Params = %d, want 33", m.Params())
	}
	if m.Cost() <= 0 || m.Name() != "DNN" {
		t.Fatal("bad metadata")
	}
}

func TestScoreFinite(t *testing.T) {
	xs, ys := xorData(200, 11)
	m, err := Train(xs, ys, Config{Epochs: 10, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		if s := m.Score(x); math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("non-finite score %v", s)
		}
	}
}

func TestClassWeightDefaultsFromImbalance(t *testing.T) {
	// 5% positive: positives should still be scored higher on average than
	// the base rate would suggest, thanks to automatic class weighting.
	rng := mathx.NewRNG(13)
	var xs []mathx.Vec
	var ys []bool
	for i := 0; i < 800; i++ {
		x := mathx.Vec{rng.NormFloat64(), rng.NormFloat64()}
		xs = append(xs, x)
		ys = append(ys, x[0] > 1.6)
	}
	m, err := Train(xs, ys, Config{Epochs: 20, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	tp, p := 0, 0
	for i, x := range xs {
		if ys[i] {
			p++
			if m.Score(x) > 0 {
				tp++
			}
		}
	}
	if p == 0 {
		t.Skip("degenerate draw")
	}
	if recall := float64(tp) / float64(p); recall < 0.6 {
		t.Fatalf("recall on imbalanced data = %v, want >= 0.6", recall)
	}
}

// TestGobDecodeRejectsMalformedLayers: a decoded model must have the shapes
// the forward kernel trusts, or decoding fails; a well-formed one round-trips
// to the same scores.
func TestGobDecodeRejectsMalformedLayers(t *testing.T) {
	xs, ys := xorData(60, 15)
	m, err := Train(xs, ys, Config{Hidden: []int{5}, Epochs: 2, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	enc := func(layers []layerGob) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(layers); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	good := []layerGob{
		{In: 2, Out: 5, W: m.layers[0].w, B: m.layers[0].b},
		{In: 5, Out: 1, W: m.layers[1].w, B: m.layers[1].b},
	}
	var back Model
	if err := back.GobDecode(enc(good)); err != nil {
		t.Fatal(err)
	}
	if a, b := m.Score(xs[0]), back.Score(xs[0]); math.Float64bits(a) != math.Float64bits(b) {
		t.Fatalf("decoded model scores %v, the original %v", b, a)
	}
	short := append([]float64(nil), m.layers[0].w[:9]...)
	for _, c := range []struct {
		name   string
		layers []layerGob
	}{
		{"no layers", nil},
		{"two outputs", []layerGob{good[0], {In: 5, Out: 2, W: make([]float64, 10), B: make([]float64, 2)}}},
		{"short weights", []layerGob{{In: 2, Out: 5, W: short, B: good[0].B}, good[1]}},
		{"short biases", []layerGob{{In: 2, Out: 5, W: good[0].W, B: good[0].B[:4]}, good[1]}},
		{"layers that do not chain", []layerGob{good[0], {In: 4, Out: 1, W: make([]float64, 4), B: make([]float64, 1)}}},
		{"zero width", []layerGob{{In: 0, Out: 1}}},
	} {
		var d Model
		if err := d.GobDecode(enc(c.layers)); err == nil {
			t.Errorf("%s: decoded without an error", c.name)
		}
	}
}
