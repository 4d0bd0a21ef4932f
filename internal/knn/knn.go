// Package knn answers exact k-nearest-neighbour queries for the KDE PP
// classifier (§5.2) by scanning every indexed point.
//
// The paper's usage note retrieves the neighbourhood with a k-d tree [8].
// At the KDE PPs' shape — whitened PCA features, d = 8, k = 25, a few
// hundred to a few thousand points per class — a tree still has to visit
// most points (its bounding cells cannot prune in eight dimensions), so the
// scan does the same distance work without the tree's branches and bounds,
// sixteen points per kernel call.
//
// Points are stored in blocks of lanes points, dimension-major: block b
// holds coordinate j of its points at blocks[(b·dim+j)·lanes : …+lanes]. The
// last block is padded with zeros; a padding lane is never returned.
// mathx.SqDists computes one block's sixteen squared distances, each
// bit-identical to mathx.SqDist's.
package knn

import (
	"math"
	"math/bits"

	"probpred/internal/mathx"
)

// lanes is the number of points in a block, the points mathx.SqDists
// measures in one call.
const lanes = mathx.DistLanes

// Index is an immutable set of dense points, laid out for the scan.
type Index struct {
	dim, n int
	blocks []float64
}

// Build indexes points, copying their coordinates. All points must have the
// same dimensionality.
func Build(points []mathx.Vec) *Index {
	x := &Index{n: len(points)}
	if len(points) == 0 {
		return x
	}
	x.dim = len(points[0])
	x.blocks = make([]float64, (len(points)+lanes-1)/lanes*lanes*x.dim)
	for i, p := range points {
		blk := x.blocks[i/lanes*lanes*x.dim:]
		for j, v := range p {
			blk[j*lanes+i%lanes] = v
		}
	}
	return x
}

// Len returns the number of indexed points.
func (x *Index) Len() int { return x.n }

// Point returns a copy of the i-th point in Build's input order.
func (x *Index) Point(i int) mathx.Vec {
	blk := x.blocks[i/lanes*lanes*x.dim:]
	p := make(mathx.Vec, x.dim)
	for j := range p {
		p[j] = blk[j*lanes+i%lanes]
	}
	return p
}

// Result is one neighbour returned by a query.
type Result struct {
	Index  int     // the neighbour is Point(Index)
	SqDist float64 // squared Euclidean distance to the query, as mathx.SqDist computes it
}

// Scratch holds the reusable buffers of a query: the k best distances and
// points so far, one block's distances and the result. A zero Scratch is
// ready to use; callers that issue many queries (the KDE scorer's hot path)
// keep one and pass it to KNNInto so steady-state queries allocate nothing.
type Scratch struct {
	dist []float64
	idx  []int32
	out  []Result
	blk  [lanes]float64
}

// KNN returns the k nearest neighbours of q by ascending distance, a tie
// going to the point earlier in Build's input order. If the index holds
// fewer than k points, all are returned.
func (x *Index) KNN(q mathx.Vec, k int) []Result {
	var s Scratch
	return x.KNNInto(q, k, &s)
}

// KNNInto is KNN reusing the caller's scratch buffers. The returned slice
// aliases s and is valid until the next KNNInto call with the same scratch.
func (x *Index) KNNInto(q mathx.Vec, k int, s *Scratch) []Result {
	if x.n == 0 || k <= 0 {
		return nil
	}
	if len(q) != x.dim {
		panic("knn: query dimensionality does not match the index's")
	}
	k = min(k, x.n)
	if cap(s.dist) < k {
		s.dist, s.idx, s.out = make([]float64, 0, k), make([]int32, 0, k), make([]Result, k)
	}
	// dist is sorted ascending, ties in input order: a candidate enters only
	// strictly below the k-th distance, and is shifted in after every
	// neighbour not farther than it.
	dist, idx := s.dist[:0], s.idx[:0]
	for base := 0; base < x.n; base += lanes {
		bound := math.Inf(1)
		if len(dist) == k {
			bound = dist[k-1]
		}
		// A block sliced len(q)·lanes long lets the compiler drop
		// SqDists's shape check from the loop.
		below := mathx.SqDists(q, x.blocks[base*x.dim:][:len(q)*lanes], bound, &s.blk)
		if len(dist) < k {
			below = 1<<lanes - 1
		}
		if rest := x.n - base; rest < lanes {
			below &= 1<<rest - 1
		}
		for ; below != 0; below &= below - 1 {
			l := bits.TrailingZeros32(below)
			d := s.blk[l]
			if len(dist) == k {
				if !(d < dist[k-1]) {
					continue
				}
				dist, idx = dist[:k-1], idx[:k-1]
			}
			i := len(dist)
			dist, idx = append(dist, d), append(idx, 0)
			for ; i > 0 && dist[i-1] > d; i-- {
				dist[i], idx[i] = dist[i-1], idx[i-1]
			}
			dist[i], idx[i] = d, int32(base+l)
		}
	}
	out := s.out[:len(dist)]
	for i, d := range dist {
		out[i] = Result{Index: int(idx[i]), SqDist: d}
	}
	s.dist, s.idx = dist, idx
	return out
}
