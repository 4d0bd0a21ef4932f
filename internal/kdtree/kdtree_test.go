package kdtree

import (
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
