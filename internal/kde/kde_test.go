package kde

import (
	"math"
	"sort"
	"testing"

	"probpred/internal/mathx"
)

// twoMoonsIsh generates non-linearly separable data: positives live on a
// ring of radius ~3, negatives in a blob at the origin. A linear classifier
// cannot separate them; density ratio can.
func ringData(n int, seed uint64) ([]mathx.Vec, []bool) {
	rng := mathx.NewRNG(seed)
	var xs []mathx.Vec
	var ys []bool
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			theta := rng.Float64() * 2 * math.Pi
			r := 3 + rng.NormFloat64()*0.2
			xs = append(xs, mathx.Vec{r * math.Cos(theta), r * math.Sin(theta)})
			ys = append(ys, true)
		} else {
			xs = append(xs, mathx.Vec{rng.NormFloat64() * 0.5, rng.NormFloat64() * 0.5})
			ys = append(ys, false)
		}
	}
	return xs, ys
}

func TestTrainRingAccuracy(t *testing.T) {
	xs, ys := ringData(400, 1)
	m, err := Train(xs, ys, Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	txs, tys := ringData(200, 3)
	correct := 0
	for i, x := range txs {
		if (m.Score(x) > 0) == tys[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(txs)); acc < 0.95 {
		t.Fatalf("ring accuracy = %v, want >= 0.95 (KDE must handle non-linear data)", acc)
	}
}

func TestScoreSeparation(t *testing.T) {
	xs, ys := ringData(400, 4)
	m, err := Train(xs, ys, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	onRing := m.Score(mathx.Vec{3, 0})
	atCenter := m.Score(mathx.Vec{0, 0})
	if onRing <= atCenter {
		t.Fatalf("Score(ring)=%v <= Score(center)=%v", onRing, atCenter)
	}
}

func TestFixedBandwidth(t *testing.T) {
	xs, ys := ringData(100, 6)
	m, err := Train(xs, ys, Config{Bandwidth: 0.7, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if m.Bandwidth() != 0.7 {
		t.Fatalf("Bandwidth = %v, want 0.7", m.Bandwidth())
	}
}

func TestAutoBandwidthPositive(t *testing.T) {
	xs, ys := ringData(200, 8)
	m, err := Train(xs, ys, Config{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if m.Bandwidth() <= 0 {
		t.Fatalf("auto bandwidth = %v", m.Bandwidth())
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, nil, Config{}); err == nil {
		t.Fatal("expected error for empty set")
	}
	if _, err := Train([]mathx.Vec{{1}}, []bool{true, false}, Config{}); err == nil {
		t.Fatal("expected error for mismatch")
	}
	if _, err := Train([]mathx.Vec{{1}, {2}}, []bool{false, false}, Config{}); err == nil {
		t.Fatal("expected error for single class")
	}
}

func TestClassImbalanceNormalization(t *testing.T) {
	// 10 positives at (5,5), 1000 negatives at (0,0): a point at (5,5) must
	// still score positive despite the heavy imbalance, because densities
	// are normalized per class.
	rng := mathx.NewRNG(10)
	var xs []mathx.Vec
	var ys []bool
	for i := 0; i < 10; i++ {
		xs = append(xs, mathx.Vec{5 + rng.NormFloat64()*0.1, 5 + rng.NormFloat64()*0.1})
		ys = append(ys, true)
	}
	for i := 0; i < 1000; i++ {
		xs = append(xs, mathx.Vec{rng.NormFloat64() * 0.1, rng.NormFloat64() * 0.1})
		ys = append(ys, false)
	}
	m, err := Train(xs, ys, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if m.Score(mathx.Vec{5, 5}) <= 0 {
		t.Fatalf("Score at positive cluster = %v, want > 0", m.Score(mathx.Vec{5, 5}))
	}
	if m.Score(mathx.Vec{0, 0}) >= 0 {
		t.Fatalf("Score at negative cluster = %v, want < 0", m.Score(mathx.Vec{0, 0}))
	}
}

func TestDeterministicTraining(t *testing.T) {
	xs, ys := ringData(100, 12)
	m1, err := Train(xs, ys, Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(xs, ys, Config{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	probe := mathx.Vec{1.5, 1.5}
	if m1.Score(probe) != m2.Score(probe) {
		t.Fatal("KDE training not deterministic")
	}
}

func TestCostGrowsWithNeighbors(t *testing.T) {
	xs, ys := ringData(100, 14)
	small, err := Train(xs, ys, Config{Neighbors: 5, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Train(xs, ys, Config{Neighbors: 50, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	if big.Cost() <= small.Cost() {
		t.Fatal("cost should grow with n′")
	}
	if small.Name() != "KDE" {
		t.Fatal("bad name")
	}
}

// bruteScore is Score without the tree: every training point's SqDist, the
// n′ smallest per class summed in ascending order.
func bruteScore(xs []mathx.Vec, ys []bool, x mathx.Vec, h float64, neighbors int) float64 {
	density := func(class bool) float64 {
		var d2 []float64
		for i, p := range xs {
			if ys[i] == class {
				d2 = append(d2, mathx.SqDist(x, p))
			}
		}
		sort.Float64s(d2)
		sum := 0.0
		for _, d := range d2[:min(neighbors, len(d2))] {
			sum += math.Exp(-d / (2 * h * h))
		}
		return sum / float64(len(d2))
	}
	const eps = 1e-12
	return math.Log(density(true)+eps) - math.Log(density(false)+eps)
}

// TestScoreEqualsBruteForceDensity pins the argument for the tree's
// bit-identicality: a score depends on the exact k-NN distance list only, so
// any exact index — this tree, the one before it, or none — gives the same
// bits. Training points are duplicated and the queries include training
// points, so distances tie at zero and at the n′-th neighbour.
func TestScoreEqualsBruteForceDensity(t *testing.T) {
	rng := mathx.NewRNG(31)
	for _, dim := range []int{2, 8, 16} {
		var xs []mathx.Vec
		var ys []bool
		for i := 0; i < 900; i++ {
			x := make(mathx.Vec, dim)
			if i%3 == 2 {
				copy(x, xs[rng.Intn(len(xs))]) // a duplicate, possibly of the other class
			} else {
				for j := range x {
					x[j] = rng.NormFloat64() + float64(i%2)
				}
			}
			xs = append(xs, x)
			ys = append(ys, i%2 == 0)
		}
		for _, cfg := range []Config{{Seed: 32}, {Bandwidth: 0.7, Neighbors: 5}, {Bandwidth: 2, Neighbors: 2000}} {
			m, err := Train(xs, ys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			const rows = 120
			flat := make([]float64, 0, rows*dim)
			for i := 0; i < rows; i++ {
				if i%2 == 0 {
					flat = append(flat, xs[rng.Intn(len(xs))]...)
					continue
				}
				for j := 0; j < dim; j++ {
					flat = append(flat, rng.NormFloat64()*2)
				}
			}
			batch := make([]float64, rows)
			m.ScoreBatch(flat, dim, batch)
			for i := range batch {
				x := flat[i*dim : (i+1)*dim]
				want := bruteScore(xs, ys, x, m.h, m.neighbors)
				if got := m.Score(x); got != want {
					t.Fatalf("dim %d cfg %+v row %d: Score = %v, brute force %v", dim, cfg, i, got, want)
				}
				if batch[i] != want {
					t.Fatalf("dim %d cfg %+v row %d: ScoreBatch = %v, brute force %v", dim, cfg, i, batch[i], want)
				}
			}
		}
	}
}
