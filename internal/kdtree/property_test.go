package kdtree

import (
	"sort"
	"testing"

	"probpred/internal/mathx"
)

// checkKNN asserts that tree.KNNInto(q, k) returns the brute-force sorted
// distance list bit for bit, that every result names a distinct point, and
// that the point it names is at the reported distance.
func checkKNN(t *testing.T, pts []mathx.Vec, tree *Tree, q mathx.Vec, k int, s *Scratch) {
	t.Helper()
	got := tree.KNNInto(q, k, s)
	want := bruteKNN(pts, q, k)
	if len(got) != len(want) {
		t.Fatalf("n=%d k=%d: KNN returned %d results, want %d", len(pts), k, len(got), len(want))
	}
	seen := make(map[int]bool, len(got))
	for i, r := range got {
		if r.SqDist != want[i].SqDist {
			t.Fatalf("n=%d k=%d pos %d: dist %v, brute force %v", len(pts), k, i, r.SqDist, want[i].SqDist)
		}
		if seen[r.Index] {
			t.Fatalf("n=%d k=%d: point %d returned twice", len(pts), k, r.Index)
		}
		seen[r.Index] = true
		if d := mathx.SqDist(q, tree.Point(r.Index)); d != r.SqDist {
			t.Fatalf("n=%d k=%d: Point(%d) is at %v, result says %v", len(pts), k, r.Index, d, r.SqDist)
		}
	}
}

// pointSet builds n points of the given shape. "grid" draws coordinates from
// {0, 1, 2}, so many points coincide and many distances tie exactly.
func pointSet(shape string, n, dim int, rng *mathx.RNG) []mathx.Vec {
	pts := make([]mathx.Vec, n)
	for i := range pts {
		p := make(mathx.Vec, dim)
		switch shape {
		case "uniform":
			for j := range p {
				p[j] = rng.Float64()*20 - 10
			}
		case "grid":
			for j := range p {
				p[j] = float64(rng.Intn(3))
			}
		case "duplicated":
			if n >= 3 && i >= n/3 {
				copy(p, pts[rng.Intn(n/3)])
				break
			}
			for j := range p {
				p[j] = rng.NormFloat64()
			}
		case "identical":
			for j := range p {
				p[j] = 1.5
			}
		case "one-axis": // spread on a single axis, every other coordinate shared
			p[dim-1] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

// TestKNNPropertyHighDim checks KNN against brute force in the dimensions the
// PCA+KDE PPs use, on point sets built to break a k-d tree: coincident
// points, exact ties at the k-th distance, k >= n, a single repeated point,
// and queries that are themselves indexed points or lie far outside the data.
func TestKNNPropertyHighDim(t *testing.T) {
	rng := mathx.NewRNG(77)
	var s Scratch
	for _, dim := range []int{8, 16} {
		for _, shape := range []string{"uniform", "grid", "duplicated", "identical", "one-axis"} {
			for _, n := range []int{1, 3, leafSize, leafSize + 1, 200, 1500} {
				pts := pointSet(shape, n, dim, rng)
				tree := Build(pts)
				if tree.Len() != n {
					t.Fatalf("%s n=%d: Len = %d", shape, n, tree.Len())
				}
				for trial := 0; trial < 12; trial++ {
					q := make(mathx.Vec, dim)
					switch trial % 4 {
					case 0: // an indexed point: distance 0, ties with its duplicates
						copy(q, pts[rng.Intn(n)])
					case 1: // on the grid, between the points
						for j := range q {
							q[j] = float64(rng.Intn(3)) + 0.5
						}
					case 2: // outside the data's bounding box on every axis
						for j := range q {
							q[j] = 50 + rng.Float64()
						}
					default:
						for j := range q {
							q[j] = rng.NormFloat64() * 3
						}
					}
					for _, k := range []int{1, 2, 25, n - 1, n, n + 7} {
						if k >= 1 {
							checkKNN(t, pts, tree, q, k, &s)
						}
					}
				}
			}
		}
	}
}

// fuzzPoints decodes data into a dimensionality, a k, a query and a point
// set. Coordinates are small multiples of 1/4, so coincident points and exact
// distance ties are common rather than measure-zero.
func fuzzPoints(data []byte) (pts []mathx.Vec, q mathx.Vec, k int) {
	if len(data) < 2 {
		return nil, nil, 0
	}
	dim := 1 + int(data[0])%16
	k = 1 + int(data[1])%40
	data = data[2:]
	coord := func(b byte) float64 { return float64(int8(b)) / 4 }
	var vecs []mathx.Vec
	for len(data) >= dim {
		v := make(mathx.Vec, dim)
		for j := range v {
			v[j] = coord(data[j])
		}
		vecs = append(vecs, v)
		data = data[dim:]
	}
	if len(vecs) < 2 {
		return nil, nil, 0
	}
	return vecs[1:], vecs[0], k
}

func FuzzKNNMatchesBruteForce(f *testing.F) {
	rng := mathx.NewRNG(5)
	for _, n := range []int{40, 400, 3000} {
		noisy, tied := make([]byte, n), make([]byte, n)
		for i := range noisy {
			noisy[i] = byte(rng.Intn(256))
			// Few distinct coordinates, so almost every distance ties.
			tied[i] = byte(rng.Intn(3))
		}
		tied[0], tied[1] = 7, 24 // 8 dims, k = 25
		f.Add(noisy)
		f.Add(tied)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, q, k := fuzzPoints(data)
		if pts == nil {
			return
		}
		var s Scratch
		tree := Build(pts)
		checkKNN(t, pts, tree, q, k, &s)
		checkKNN(t, pts, tree, pts[len(pts)/2], len(pts), &s)
	})
}

// TestBuildIsBalanced pins the shape the query cost relies on: buckets no
// larger than leafSize (unless a bucket is one repeated point) and depth
// logarithmic in the number of buckets.
func TestBuildIsBalanced(t *testing.T) {
	pts := randomPoints(5000, 8, 9)
	tree := Build(pts)
	var depth func(ni int32) int
	covered := 0
	depth = func(ni int32) int {
		nd := tree.nodes[ni]
		if nd.axis < 0 {
			if n := int(nd.hi - nd.lo); n > leafSize || n < leafSize/2 {
				t.Fatalf("leaf holds %d points, want %d..%d", n, leafSize/2, leafSize)
			}
			covered += int(nd.hi - nd.lo)
			return 1
		}
		return 1 + max(depth(ni+1), depth(nd.right))
	}
	if d := depth(0); d > 10 { // 5000/24 = 209 buckets: 9 levels of splits + the leaf
		t.Fatalf("depth %d over 5000 points", d)
	}
	if covered != len(pts) {
		t.Fatalf("leaves cover %d points, want %d", covered, len(pts))
	}
	// The tree holds the input points, each once.
	got := make([]mathx.Vec, tree.Len())
	for i := range got {
		got[i] = tree.Point(i)
	}
	key := func(v mathx.Vec) float64 { return v[0] }
	sort.Slice(got, func(a, b int) bool { return key(got[a]) < key(got[b]) })
	sorted := append([]mathx.Vec(nil), pts...)
	sort.Slice(sorted, func(a, b int) bool { return key(sorted[a]) < key(sorted[b]) })
	for i := range got {
		if mathx.SqDist(got[i], sorted[i]) != 0 {
			t.Fatalf("point multiset changed at sorted position %d", i)
		}
	}
}
