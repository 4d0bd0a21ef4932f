// Package blob defines the raw unstructured input representation that
// probabilistic predicates score and that expensive UDFs consume.
//
// A Blob is the paper's "data blob": a video frame, an image, a document in
// bag-of-words form. Its feature representation is deliberately simple (§5.6
// "Input feature to PP"): a dense vector (raw pixels, concatenated frames) or
// a sparse vector (tokenized word frequencies).
package blob

import "probpred/internal/mathx"

// Blob is a single unstructured input item. Exactly one of Dense and Sparse
// is set. ID identifies the blob within its dataset; Truth optionally carries
// the generator's ground-truth payload (attribute values) used by simulated
// UDFs and by experiment metrics — real systems obviously do not have it, and
// no PP code reads it.
//
// A Blob is 48 bytes and is copied by value into scan slabs and filter
// batches, so Truth is a pointer: attributes stored inline would be paid for
// on every copy by code that never reads them.
type Blob struct {
	ID     int
	Dense  mathx.Vec
	Sparse *mathx.Sparse
	Truth  *Truth
}

// TruthKeys names the ground-truth attributes of a dataset, in the order
// every one of its rows stores them. One list is shared by all the blobs.
type TruthKeys struct{ names []string }

// NewTruthKeys returns the key list of a dataset whose blobs carry the named
// attributes.
func NewTruthKeys(names ...string) *TruthKeys { return &TruthKeys{names: names} }

// Index returns the position of key in the list's rows, or -1.
func (k *TruthKeys) Index(key string) int {
	for i, name := range k.names {
		if name == key {
			return i
		}
	}
	return -1
}

// Truth is one blob's ground truth: Vals[i] is the value of the i-th key.
type Truth struct {
	keys *TruthKeys
	Vals []float64
}

// Rows returns n zero-valued rows over k for a generator to fill and point
// its blobs at, cut from two slabs: a hash map per blob cost five times the
// bytes, and a lookup among a handful of keys is faster by comparison.
func (k *TruthKeys) Rows(n int) []Truth {
	w := len(k.names)
	rows := make([]Truth, n)
	vals := make([]float64, n*w)
	for i := range rows {
		rows[i] = Truth{keys: k, Vals: vals[i*w : (i+1)*w : (i+1)*w]}
	}
	return rows
}

// Row returns one row over k holding vals, one per key.
func (k *TruthKeys) Row(vals ...float64) *Truth {
	if len(vals) != len(k.names) {
		panic("blob: truth row does not match its keys")
	}
	return &Truth{keys: k, Vals: vals}
}

// FromDense wraps a dense feature vector as a Blob.
func FromDense(id int, v mathx.Vec) Blob { return Blob{ID: id, Dense: v} }

// FromSparse wraps a sparse feature vector as a Blob.
func FromSparse(id int, s mathx.Sparse) Blob { return Blob{ID: id, Sparse: &s} }

// IsSparse reports whether the blob carries a sparse representation.
func (b Blob) IsSparse() bool { return b.Sparse != nil }

// Dim returns the feature dimensionality.
func (b Blob) Dim() int {
	if b.Sparse != nil {
		return b.Sparse.Dim
	}
	return len(b.Dense)
}

// DenseVec returns the blob's features as a dense vector, materializing a
// sparse blob if necessary.
func (b Blob) DenseVec() mathx.Vec {
	if b.Sparse != nil {
		return b.Sparse.Dense()
	}
	return b.Dense
}

// TruthVal returns the ground-truth attribute value for key, and whether it
// exists. Only simulated UDFs and experiment metrics call this; a UDF
// reading one attribute across a batch uses a TruthCol.
func (b Blob) TruthVal(key string) (float64, bool) {
	if b.Truth == nil {
		return 0, false
	}
	if i := b.Truth.keys.Index(key); i >= 0 {
		return b.Truth.Vals[i], true
	}
	return 0, false
}

// TruthCol reads one ground-truth attribute across a batch of blobs. The
// key's position is resolved once per key list it meets — a batch's blobs
// almost always share one — rather than by comparing key names per blob.
type TruthCol struct {
	key  string
	keys *TruthKeys
	at   int
}

// NewTruthCol returns a reader of key.
func NewTruthCol(key string) TruthCol { return TruthCol{key: key} }

// Val returns b's value for the column's key, and whether it exists:
// b.TruthVal(key).
func (c *TruthCol) Val(b Blob) (float64, bool) {
	t := b.Truth
	if t == nil {
		return 0, false
	}
	if t.keys != c.keys {
		c.keys, c.at = t.keys, t.keys.Index(c.key)
	}
	if c.at < 0 {
		return 0, false
	}
	return t.Vals[c.at], true
}

// Set is a collection of blobs with parallel binary labels (+1 = the blob
// satisfies the predicate clause under consideration, per §5: ℓ(x)).
type Set struct {
	Blobs  []Blob
	Labels []bool
}

// Len returns the number of blobs in the set.
func (s Set) Len() int { return len(s.Blobs) }

// Positives returns the number of +1 labels.
func (s Set) Positives() int {
	n := 0
	for _, l := range s.Labels {
		if l {
			n++
		}
	}
	return n
}

// Selectivity returns the fraction of blobs labeled +1.
func (s Set) Selectivity() float64 {
	if s.Len() == 0 {
		return 0
	}
	return float64(s.Positives()) / float64(s.Len())
}

// Append adds a labeled blob to the set.
func (s *Set) Append(b Blob, label bool) {
	s.Blobs = append(s.Blobs, b)
	s.Labels = append(s.Labels, label)
}

// Split partitions the set into train/validation/test subsets by the given
// fractions (which must sum to at most 1) using a deterministic shuffle from
// rng. The paper uses 60/20/20 for the micro-benchmarks (§8.1) and 80/20
// train/validation for TRAF-20 (§8.2).
func (s Set) Split(rng *mathx.RNG, trainFrac, valFrac float64) (train, val, test Set) {
	n := s.Len()
	perm := rng.Perm(n)
	// Permutation positions below nTrain go to train, those below
	// nTrain+nVal to validation and the rest to test.
	nTrain := int(trainFrac * float64(n))
	nVal := int(valFrac * float64(n))
	a := min(max(nTrain, 0), n)
	b := min(max(nTrain+nVal, a), n)
	return s.pick(perm[:a]), s.pick(perm[a:b]), s.pick(perm[b:])
}

// Sample returns a uniformly sampled subset of at most n labeled blobs,
// used by model selection (§5.5) to estimate r(a] quickly.
func (s Set) Sample(rng *mathx.RNG, n int) Set {
	if n >= s.Len() {
		return s
	}
	return s.pick(rng.Perm(s.Len())[:n])
}

// pick returns the blobs at positions idx of the set, in that order, with
// their labels. Each part is allocated once, at its exact size; an empty
// idx gives the empty Set.
func (s Set) pick(idx []int) Set {
	if len(idx) == 0 {
		return Set{}
	}
	out := Set{Blobs: make([]Blob, len(idx)), Labels: make([]bool, len(idx))}
	for k, p := range idx {
		out.Blobs[k], out.Labels[k] = s.Blobs[p], s.Labels[p]
	}
	return out
}

// AnySparse reports whether any blob in the set is sparse.
func (s Set) AnySparse() bool {
	for _, b := range s.Blobs {
		if b.IsSparse() {
			return true
		}
	}
	return false
}

// Dim returns the feature dimensionality of the set (taken from the first
// blob; generators produce homogeneous sets). It returns 0 for an empty set.
func (s Set) Dim() int {
	if s.Len() == 0 {
		return 0
	}
	return s.Blobs[0].Dim()
}
