package knn

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"

	"probpred/internal/mathx"
)

func randomPoints(n, dim int, seed uint64) []mathx.Vec {
	rng := mathx.NewRNG(seed)
	pts := make([]mathx.Vec, n)
	for i := range pts {
		p := make(mathx.Vec, dim)
		for j := range p {
			p[j] = rng.Float64() * 10
		}
		pts[i] = p
	}
	return pts
}

// bruteKNN is the reference implementation: every point by mathx.SqDist,
// stably sorted, so ties keep input order.
func bruteKNN(pts []mathx.Vec, q mathx.Vec, k int) []Result {
	out := make([]Result, 0, len(pts))
	for i, p := range pts {
		out = append(out, Result{Index: i, SqDist: mathx.SqDist(q, p)})
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].SqDist < out[b].SqDist })
	if k > len(out) {
		k = len(out)
	}
	return out[:k]
}

// sameResults reports whether got and want name the same points at the same
// distances, bit for bit, in the same order.
func sameResults(got, want []Result) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Index != want[i].Index || got[i].SqDist != want[i].SqDist {
			return false
		}
	}
	return true
}

func TestKNNMatchesBruteForce(t *testing.T) {
	pts := randomPoints(300, 3, 1)
	x := Build(pts)
	rng := mathx.NewRNG(2)
	for trial := 0; trial < 50; trial++ {
		q := mathx.Vec{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		k := 1 + rng.Intn(10)
		if got, want := x.KNN(q, k), bruteKNN(pts, q, k); !sameResults(got, want) {
			t.Fatalf("trial %d: KNN = %v, brute force %v", trial, got, want)
		}
	}
}

func TestEmptyIndex(t *testing.T) {
	x := Build(nil)
	if x.Len() != 0 {
		t.Fatal("empty index has nonzero length")
	}
	if x.KNN(mathx.Vec{0}, 3) != nil {
		t.Fatal("KNN on an empty index should be nil")
	}
}

func TestKNNFewerPointsThanK(t *testing.T) {
	pts := randomPoints(5, 2, 5)
	got := Build(pts).KNN(mathx.Vec{0, 0}, 10)
	if len(got) != 5 {
		t.Fatalf("KNN = %d results, want all 5", len(got))
	}
}

func TestKNNZeroK(t *testing.T) {
	x := Build(randomPoints(10, 2, 6))
	if got := x.KNN(mathx.Vec{0, 0}, 0); got != nil {
		t.Fatalf("KNN(k=0) = %v, want nil", got)
	}
}

func TestPointAccess(t *testing.T) {
	pts := randomPoints(2*lanes+3, 5, 7)
	x := Build(pts)
	for i, want := range pts {
		if got := x.Point(i); mathx.SqDist(got, want) != 0 || len(got) != len(want) {
			t.Fatalf("Point(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := []mathx.Vec{{2, 2}, {1, 1}, {1, 1}, {1, 1}, {1, 1}}
	got := Build(pts).KNN(mathx.Vec{1, 1}, 3)
	want := []Result{{1, 0}, {2, 0}, {3, 0}}
	if !sameResults(got, want) {
		t.Fatalf("KNN over duplicates = %v, want the first three tied points %v", got, want)
	}
}

// gaussianPoints draws n points of i.i.d. standard normal coordinates — the
// shape of whitened PCA features.
func gaussianPoints(n, dim int, seed uint64) []mathx.Vec {
	rng := mathx.NewRNG(seed)
	pts := make([]mathx.Vec, n)
	for i := range pts {
		p := make(mathx.Vec, dim)
		for j := range p {
			p[j] = rng.NormFloat64()
		}
		pts[i] = p
	}
	return pts
}

// BenchmarkKNN times one query at the KDE scorer's shape — d = 8 whitened
// features, k = 25 neighbours — against class sets the size of the
// benchmark's positive (≈ 300) and negative (≈ 2 000) sets (DESIGN.md "Dense
// kernels (`mathx`)"). mathx.BenchmarkKernels compares the AVX2 and portable
// distance kernels.
func BenchmarkKNN(b *testing.B) {
	const d, k = 8, 25
	queries := gaussianPoints(256, d, 2)
	for _, n := range []int{300, 2000} {
		x := Build(gaussianPoints(n, d, 1))
		var s Scratch
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				knnSink = x.KNNInto(queries[i%len(queries)], k, &s)
			}
		})
	}
}

// knnSink keeps BenchmarkKNN's results live.
var knnSink []Result

// Property: KNN always agrees with brute force.
func TestKNNQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		n := 1 + rng.Intn(100)
		dim := 1 + rng.Intn(5)
		pts := randomPoints(n, dim, seed^0xabc)
		q := make(mathx.Vec, dim)
		for j := range q {
			q[j] = rng.Float64() * 10
		}
		k := 1 + rng.Intn(n)
		return sameResults(Build(pts).KNN(q, k), bruteKNN(pts, q, k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
