// Package kdtree implements a k-dimensional tree [8] used by the KDE PP
// classifier (§5.2 usage note) to retrieve a test point's neighbourhood in
// (average) logarithmic time instead of scanning the full training set.
//
// The tree is flat and bucketed. Points are copied row-major into one slice in
// tree order, nodes sit in one pre-order array (a node's left child is the
// next element), and leaves hold up to leafSize points that a query scans
// linearly, four at a time. Internal nodes split at the median of the axis
// with the widest spread. A query prunes a far subtree by the incremental
// lower bound on the distance from the query to the subtree's cell (Arya &
// Mount), which tightens with every axis already crossed instead of testing
// the single splitting plane.
package kdtree

import (
	"math"

	"probpred/internal/mathx"
)

// leafSize is the largest bucket a split leaves unsplit. Around 16–32 points
// the linear scan of a bucket costs about what descending two more levels
// would, and it has no branches the predictor can miss.
const leafSize = 24

// boundSlack scales a cell's lower bound before it is compared with the
// current k-th best distance. The bound is maintained incrementally (subtract
// the old per-axis offset, add the new one), so it carries a rounding error of
// a few ulps per level, in either direction, relative to the index-order sum
// SqDist computes for a point on the cell's corner. Shrinking the bound by
// 1e-9 — orders of magnitude more than tree depth × 2⁻⁵³ — keeps pruning
// conservative, so the k-NN set stays exact; it costs a visit only when a
// cell is within a billionth of the current radius.
const boundSlack = 1 - 1e-9

// Tree is an immutable k-d tree over dense points.
type Tree struct {
	dim   int
	pts   []float64 // Len()×dim, row-major, in tree order
	nodes []node    // pre-order; nodes[0] is the root
}

// node is a split (axis >= 0: the left child is the next node, the right
// child is nodes[right]) or a leaf (axis < 0: its bucket is points [lo, hi)).
type node struct {
	split  float64 // left subtree ≤ split ≤ right subtree, along axis
	axis   int32
	right  int32
	lo, hi int32
}

// Build constructs a k-d tree over points, copying their coordinates.
func Build(points []mathx.Vec) *Tree {
	t := &Tree{}
	if len(points) == 0 {
		return t
	}
	t.dim = len(points[0])
	order := make([]int32, len(points))
	for i := range order {
		order[i] = int32(i)
	}
	// Every leaf but a lone root holds at least leafSize/2 points.
	t.nodes = make([]node, 0, 4*len(points)/leafSize+1)
	t.build(points, order, 0)
	t.pts = make([]float64, 0, len(points)*t.dim)
	for _, i := range order {
		t.pts = append(t.pts, points[i]...)
	}
	return t
}

// build appends the subtree over order (the points at tree positions
// [lo, lo+len(order))) in pre-order, permuting order into tree order.
func (t *Tree) build(points []mathx.Vec, order []int32, lo int) {
	hi := lo + len(order)
	axis, spread := 0, 0.0
	if len(order) > leafSize {
		for a := 0; a < t.dim; a++ {
			mn, mx := points[order[0]][a], points[order[0]][a]
			for _, i := range order[1:] {
				v := points[i][a]
				if v < mn {
					mn = v
				} else if v > mx {
					mx = v
				}
			}
			if mx-mn > spread {
				axis, spread = a, mx-mn
			}
		}
	}
	// Zero spread on every axis means the bucket is all one point: no plane
	// separates it, so it stays a (large) leaf.
	if spread == 0 {
		t.nodes = append(t.nodes, node{axis: -1, lo: int32(lo), hi: int32(hi)})
		return
	}
	mid := len(order) / 2
	selectNth(points, order, mid, axis)
	self := len(t.nodes)
	t.nodes = append(t.nodes, node{split: points[order[mid]][axis], axis: int32(axis)})
	t.build(points, order[:mid], lo)
	t.nodes[self].right = int32(len(t.nodes))
	t.build(points, order[mid:], lo+mid)
}

// selectNth permutes order so that order[n] holds the point an ascending sort
// on axis would put there, nothing before it is larger and nothing after it
// is smaller (Hoare's quickselect, median-of-three pivot).
func selectNth(points []mathx.Vec, order []int32, n, axis int) {
	key := func(i int) float64 { return points[order[i]][axis] }
	lo, hi := 0, len(order)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if key(mid) < key(lo) {
			order[mid], order[lo] = order[lo], order[mid]
		}
		if key(hi) < key(lo) {
			order[hi], order[lo] = order[lo], order[hi]
		}
		if key(hi) < key(mid) {
			order[hi], order[mid] = order[mid], order[hi]
		}
		pivot := key(mid)
		i, j := lo, hi
		for i <= j {
			for key(i) < pivot {
				i++
			}
			for key(j) > pivot {
				j--
			}
			if i <= j {
				order[i], order[j] = order[j], order[i]
				i++
				j--
			}
		}
		switch {
		case n <= j:
			hi = j
		case n >= i:
			lo = i
		default:
			return
		}
	}
}

// Len returns the number of indexed points.
func (t *Tree) Len() int {
	if t.dim == 0 {
		return 0
	}
	return len(t.pts) / t.dim
}

// Point returns the i-th indexed point, in tree order (not Build's input
// order). The slice aliases the tree's storage and must not be modified.
func (t *Tree) Point(i int) mathx.Vec { return t.pts[i*t.dim : (i+1)*t.dim : (i+1)*t.dim] }

// Result is one neighbour returned by a query.
type Result struct {
	Index  int     // the neighbour is Point(Index)
	SqDist float64 // squared Euclidean distance to the query, as mathx.SqDist computes it
}

// Scratch holds the reusable buffers of a KNN query: the candidate heap, the
// per-axis cell offsets and the result slice. A zero Scratch is ready to use;
// callers that issue many queries (the KDE scorer's hot path) keep one per
// worker and pass it to KNNInto so steady-state queries allocate nothing.
type Scratch struct {
	heap []Result  // binary max-heap on SqDist: the k best so far
	off  []float64 // off[a] is the distance from q to the current cell along axis a
	out  []Result
	q    mathx.Vec
	k    int
}

// KNN returns the k nearest neighbours of q sorted by ascending distance.
// If the tree holds fewer than k points, all are returned. Which of several
// points tied at the k-th distance is returned is unspecified; the sorted
// list of distances is not.
func (t *Tree) KNN(q mathx.Vec, k int) []Result {
	var s Scratch
	return t.KNNInto(q, k, &s)
}

// KNNInto is KNN reusing the caller's scratch buffers. The returned slice
// aliases s and is valid until the next KNNInto call with the same scratch.
func (t *Tree) KNNInto(q mathx.Vec, k int, s *Scratch) []Result {
	if len(t.nodes) == 0 || k <= 0 {
		return nil
	}
	if len(q) != t.dim {
		panic("kdtree: query dimensionality does not match the tree's")
	}
	s.q, s.k = q, k
	s.heap = s.heap[:0]
	if cap(s.off) < t.dim {
		s.off = make([]float64, t.dim)
	}
	s.off = s.off[:t.dim]
	clear(s.off)
	t.search(s, 0, 0)
	s.q = nil
	if cap(s.out) < len(s.heap) {
		s.out = make([]Result, len(s.heap))
	}
	out := s.out[:len(s.heap)]
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = s.heap[0]
		last := len(s.heap) - 1
		s.heap[0] = s.heap[last]
		s.heap = s.heap[:last]
		s.siftDown()
	}
	return out
}

// search visits the subtree at nodes[ni], whose cell lies at squared distance
// at least bound from the query.
func (t *Tree) search(s *Scratch, ni int32, bound float64) {
	nd := &t.nodes[ni]
	if nd.axis < 0 {
		t.scanLeaf(s, int(nd.lo), int(nd.hi))
		return
	}
	axis := nd.axis
	diff := s.q[axis] - nd.split
	near, far := ni+1, nd.right
	if diff >= 0 {
		near, far = far, near
	}
	t.search(s, near, bound)
	// Crossing the plane replaces this axis' share of the bound: the far cell
	// is |diff| away along axis, which is no less than the old offset because
	// split lies inside the current cell.
	old := s.off[axis]
	farBound := bound - old*old + diff*diff
	if len(s.heap) == s.k && farBound*boundSlack >= s.heap[0].SqDist {
		return
	}
	s.off[axis] = math.Abs(diff)
	t.search(s, far, farBound)
	s.off[axis] = old
}

// scanLeaf offers points [lo, hi) to the heap. Four points go through the
// coordinate loop together, each with its own accumulator, so the four
// floating-point add chains overlap; every accumulator still sums its
// point's squared differences in index order, exactly as mathx.SqDist does.
func (t *Tree) scanLeaf(s *Scratch, lo, hi int) {
	d, q := t.dim, s.q
	i := lo
	for ; i+4 <= hi; i += 4 {
		p0 := t.pts[i*d : (i+1)*d : (i+1)*d]
		p1 := t.pts[(i+1)*d : (i+2)*d : (i+2)*d]
		p2 := t.pts[(i+2)*d : (i+3)*d : (i+3)*d]
		p3 := t.pts[(i+3)*d : (i+4)*d : (i+4)*d]
		var s0, s1, s2, s3 float64
		for j, v := range q {
			d0, d1, d2, d3 := v-p0[j], v-p1[j], v-p2[j], v-p3[j]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		s.offer(i, s0)
		s.offer(i+1, s1)
		s.offer(i+2, s2)
		s.offer(i+3, s3)
	}
	for ; i < hi; i++ {
		s.offer(i, mathx.SqDist(q, t.pts[i*d:(i+1)*d]))
	}
}

// offer records point idx at squared distance d2 if it is among the k best
// seen so far.
func (s *Scratch) offer(idx int, d2 float64) {
	if len(s.heap) < s.k {
		s.heap = append(s.heap, Result{Index: idx, SqDist: d2})
		for i := len(s.heap) - 1; i > 0; {
			parent := (i - 1) / 2
			if s.heap[parent].SqDist >= s.heap[i].SqDist {
				break
			}
			s.heap[parent], s.heap[i] = s.heap[i], s.heap[parent]
			i = parent
		}
		return
	}
	if d2 < s.heap[0].SqDist {
		s.heap[0] = Result{Index: idx, SqDist: d2}
		s.siftDown()
	}
}

// siftDown restores the max-heap property after the root was replaced.
func (s *Scratch) siftDown() {
	h := s.heap
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		largest := i
		if l < len(h) && h[l].SqDist > h[largest].SqDist {
			largest = l
		}
		if r < len(h) && h[r].SqDist > h[largest].SqDist {
			largest = r
		}
		if largest == i {
			return
		}
		h[i], h[largest] = h[largest], h[i]
		i = largest
	}
}
