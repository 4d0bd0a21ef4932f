package kdtree

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

// bruteKNN is the reference implementation.
func bruteKNN(pts []mathx.Vec, q mathx.Vec, k int) []Result {
	out := make([]Result, 0, len(pts))
	for i, p := range pts {
		out = append(out, Result{Index: i, SqDist: mathx.SqDist(q, p)})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SqDist < out[b].SqDist })
	if k > len(out) {
		k = len(out)
	}
	return out[:k]
}

func TestKNNMatchesBruteForce(t *testing.T) {
	pts := randomPoints(300, 3, 1)
	tree := Build(pts)
	rng := mathx.NewRNG(2)
	for trial := 0; trial < 50; trial++ {
		q := mathx.Vec{rng.Float64() * 10, rng.Float64() * 10, rng.Float64() * 10}
		k := 1 + rng.Intn(10)
		got := tree.KNN(q, k)
		want := bruteKNN(pts, q, k)
		if len(got) != len(want) {
			t.Fatalf("KNN returned %d, want %d", len(got), len(want))
		}
		for i := range got {
			if got[i].SqDist != want[i].SqDist {
				t.Fatalf("trial %d pos %d: dist %v want %v", trial, i, got[i].SqDist, want[i].SqDist)
			}
		}
	}
}

func TestEmptyTree(t *testing.T) {
	tree := Build(nil)
	if tree.Len() != 0 {
		t.Fatal("empty tree has nonzero length")
	}
	if tree.KNN(mathx.Vec{0}, 3) != nil {
		t.Fatal("KNN on empty tree should be nil")
	}
}

func TestKNNFewerPointsThanK(t *testing.T) {
	pts := randomPoints(5, 2, 5)
	tree := Build(pts)
	got := tree.KNN(mathx.Vec{0, 0}, 10)
	if len(got) != 5 {
		t.Fatalf("KNN = %d results, want all 5", len(got))
	}
}

func TestKNNZeroK(t *testing.T) {
	tree := Build(randomPoints(10, 2, 6))
	if got := tree.KNN(mathx.Vec{0, 0}, 0); got != nil {
		t.Fatalf("KNN(k=0) = %v, want nil", got)
	}
}

func TestPointAccess(t *testing.T) {
	pts := []mathx.Vec{{5, 6}}
	tree := Build(pts)
	if p := tree.Point(0); p[0] != 5 || p[1] != 6 {
		t.Fatalf("Point(0) = %v", p)
	}
}

func TestDuplicatePoints(t *testing.T) {
	pts := []mathx.Vec{{1, 1}, {1, 1}, {1, 1}, {2, 2}}
	tree := Build(pts)
	got := tree.KNN(mathx.Vec{1, 1}, 3)
	if len(got) != 3 {
		t.Fatalf("KNN over duplicates = %d results", len(got))
	}
	for _, r := range got {
		if r.SqDist != 0 {
			t.Fatalf("expected all-zero distances, got %v", r.SqDist)
		}
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

// sweepKNN is the brute-force baseline: every point offered to the same
// bounded heap in storage order, four at a time, with nothing pruned. The
// neighbours come back in heap order, not sorted.
func sweepKNN(t *Tree, q mathx.Vec, k int, s *Scratch) []Result {
	s.q, s.k = q, k
	s.heap = s.heap[:0]
	t.scanLeaf(s, 0, t.Len())
	s.q = nil
	return s.heap
}

// BenchmarkKNN times one query at the KDE scorer's shape — d = 8 whitened
// features, k = 25 neighbours — against class sets the size of the
// benchmark's positive (≈ 300) and negative (≈ 2 000) trees, tree search
// beside the flat sweep it has to beat (DESIGN.md "KDE k-NN baseline").
func BenchmarkKNN(b *testing.B) {
	const d, k = 8, 25
	queries := gaussianPoints(256, d, 2)
	for _, n := range []int{300, 2000} {
		tree := Build(gaussianPoints(n, d, 1))
		var s Scratch
		got := append([]Result(nil), sweepKNN(tree, queries[0], k, &s)...)
		sort.Slice(got, func(i, j int) bool { return got[i].SqDist < got[j].SqDist })
		for i, r := range tree.KNN(queries[0], k) {
			if got[i].SqDist != r.SqDist {
				b.Fatalf("n=%d: sweep neighbour %d at %v, tree at %v", n, i, got[i].SqDist, r.SqDist)
			}
		}
		b.Run(fmt.Sprintf("n=%d/tree", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				knnSink = tree.KNNInto(queries[i%len(queries)], k, &s)
			}
		})
		b.Run(fmt.Sprintf("n=%d/sweep", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				knnSink = sweepKNN(tree, queries[i%len(queries)], k, &s)
			}
		})
	}
}

// knnSink keeps BenchmarkKNN's results live.
var knnSink []Result

// Property: k-d tree KNN always agrees with brute force on distances.
func TestKNNQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		n := 1 + rng.Intn(100)
		dim := 1 + rng.Intn(5)
		pts := randomPoints(n, dim, seed^0xabc)
		tree := Build(pts)
		q := make(mathx.Vec, dim)
		for j := range q {
			q[j] = rng.Float64() * 10
		}
		k := 1 + rng.Intn(n)
		got := tree.KNN(q, k)
		want := bruteKNN(pts, q, k)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].SqDist != want[i].SqDist {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
