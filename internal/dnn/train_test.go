package dnn

import (
	"fmt"
	"math"
	"testing"

	"probpred/internal/data"
	"probpred/internal/mathx"
	"probpred/internal/query"
)

// trafficData labels the 32-feature traffic blobs by one t=* clause, the
// shape of the DNN PPs in a mixed corpus.
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

// cocoData mimics the COCO-like generator in 64 dimensions: blobs are tanh
// of a random projection of 8 latent factors plus clutter, and the label is
// radial in latent space, so it is not linearly separable in blob space.
func cocoData(n int, seed uint64) ([]mathx.Vec, []bool) {
	const d, latent = 64, 8
	rng := mathx.NewRNG(seed)
	mix := make([]float64, d*latent)
	for i := range mix {
		mix[i] = rng.NormFloat64() / math.Sqrt(latent)
	}
	xs := make([]mathx.Vec, n)
	ys := make([]bool, n)
	z := make([]float64, latent)
	for i := range xs {
		r := 0.0
		for k := range z {
			z[k] = rng.NormFloat64()
			r += (z[k] - 0.5) * (z[k] - 0.5)
		}
		x := make(mathx.Vec, d)
		for j := range x {
			x[j] = math.Tanh(mathx.Dot(mix[j*latent:(j+1)*latent], z)) + 0.25*rng.NormFloat64()
		}
		xs[i], ys[i] = x, r < 6
	}
	return xs, ys
}

// sameBits reports the first parameter or momentum value in which a and b
// differ as IEEE bit patterns.
func sameBits(a, b *Model) (string, bool) {
	if len(a.layers) != len(b.layers) {
		return "layer count", false
	}
	for i := range a.layers {
		la, lb := a.layers[i], b.layers[i]
		for _, p := range []struct {
			name string
			x, y []float64
		}{{"w", la.w, lb.w}, {"b", la.b, lb.b}, {"vw", la.vw, lb.vw}, {"vb", la.vb, lb.vb}} {
			if len(p.x) != len(p.y) {
				return fmt.Sprintf("layer %d %s length", i, p.name), false
			}
			for j := range p.x {
				if math.Float64bits(p.x[j]) != math.Float64bits(p.y[j]) {
					return fmt.Sprintf("layer %d %s[%d]: %v vs %v", i, p.name, j, p.x[j], p.y[j]), false
				}
			}
		}
	}
	return "", true
}

// TestTrainMatchesReference holds Train's batched step to the per-sample
// reference loop in ref_test.go: every weight, bias and momentum value bit
// for bit, across network depths and widths, batch sizes that do and do not
// divide the set (1, 7, 16, 33), and inputs of 2, 32 and 64 features.
func TestTrainMatchesReference(t *testing.T) {
	xor := func(n int, seed uint64) func(*testing.T) ([]mathx.Vec, []bool) {
		return func(*testing.T) ([]mathx.Vec, []bool) { return xorData(n, seed) }
	}
	traffic := func(clause string, n int, seed uint64) func(*testing.T) ([]mathx.Vec, []bool) {
		return func(t *testing.T) ([]mathx.Vec, []bool) { return trafficData(t, clause, n, seed) }
	}
	coco := func(n int, seed uint64) func(*testing.T) ([]mathx.Vec, []bool) {
		return func(*testing.T) ([]mathx.Vec, []bool) { return cocoData(n, seed) }
	}
	for _, c := range []struct {
		name string
		data func(*testing.T) ([]mathx.Vec, []bool)
		cfg  Config
	}{
		{"xor/32/b1", xor(60, 21), Config{Hidden: []int{32}, BatchSize: 1, Epochs: 3}},
		{"xor/16x16/b7", xor(101, 22), Config{Hidden: []int{16, 16}, BatchSize: 7, Epochs: 4}},
		// Long enough for confident samples' deltas to get tiny: skipping
		// |δ| < 1e-15 instead of δ = 0 fails this case.
		{"xor/16x16/default-batch/60-epochs", xor(300, 1), Config{Hidden: []int{16, 16}, Epochs: 60}},
		{"xor/128x64x32/b33", xor(70, 23), Config{Hidden: []int{128, 64, 32}, BatchSize: 33, Epochs: 3}},
		{"traffic-SUV/128x64/b16", traffic("t=SUV", 250, 31), Config{Hidden: []int{128, 64}, BatchSize: 16, Epochs: 3}},
		{"traffic-sedan/32/b33", traffic("t=sedan", 200, 32), Config{Hidden: []int{32}, BatchSize: 33, Epochs: 3}},
		{"traffic-truck/128x64x32/b7", traffic("t=truck", 120, 33), Config{Hidden: []int{128, 64, 32}, BatchSize: 7, Epochs: 2}},
		{"traffic-van/16x16/b1", traffic("t=van", 90, 34), Config{Hidden: []int{16, 16}, BatchSize: 1, Epochs: 2}},
		{"coco/128x64/b33", coco(150, 41), Config{Hidden: []int{128, 64}, BatchSize: 33, Epochs: 3}},
		{"coco/16x16/b1", coco(80, 42), Config{Hidden: []int{16, 16}, BatchSize: 1, Epochs: 2}},
		{"coco/128x64x32/b16", coco(120, 43), Config{Hidden: []int{128, 64, 32}, BatchSize: 16, Epochs: 2}},
		{"coco/32/b7", coco(100, 44), Config{Hidden: []int{32}, BatchSize: 7, Epochs: 3}},
	} {
		t.Run(c.name, func(t *testing.T) {
			xs, ys := c.data(t)
			cfg := c.cfg
			cfg.Seed = 77
			got, err := Train(xs, ys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := trainRef(xs, ys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if where, ok := sameBits(got, want); !ok {
				t.Fatalf("batched step diverges from the reference at %s", where)
			}
		})
	}
}

// TestTrainAllocBudget holds Train to allocations made once per call: the
// model, the shuffle order and the step's scratch, none per epoch or batch.
func TestTrainAllocBudget(t *testing.T) {
	xs, ys := trafficData(t, "t=SUV", 200, 51)
	allocs := func(epochs int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := Train(xs, ys, Config{Hidden: []int{128, 64}, Epochs: epochs, Seed: 5}); err != nil {
				t.Fatal(err)
			}
		})
	}
	// For three layers: the model takes 22 (2 for its shape, the Model, 5 per
	// layer, 3 as the layer list grows, the generator), the step's scratch
	// 16 (the order, the trainer and its 3 per-layer lists, 3 matrices per
	// layer, the gradient row with the coefficient list and the two forward
	// tiles, and the row-index list).
	const budget = 38
	one, twenty := allocs(1), allocs(20)
	if one != twenty || twenty > budget {
		t.Fatalf("Train allocated %v times for 1 epoch and %v for 20, want the same count ≤ %d", one, twenty, budget)
	}
}

// BenchmarkTrain trains one DNN PP of the benchmark's mixed corpus: a t=*
// clause over 1 920 traffic rows, 32→128→64→1, 10 epochs of batch 16, with
// Train's batched step and with the per-sample reference.
func BenchmarkTrain(b *testing.B) {
	xs, ys := trafficData(b, "t=SUV", 1920, 61)
	cfg := Config{Hidden: []int{128, 64}, Epochs: 10, Seed: 7}
	for _, c := range []struct {
		name  string
		train func([]mathx.Vec, []bool, Config) (*Model, error)
	}{{"batched", Train}, {"reference", trainRef}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.train(xs, ys, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
