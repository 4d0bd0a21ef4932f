package blob

import (
	"testing"
	"unsafe"

	"probpred/internal/mathx"
)

func TestFromDense(t *testing.T) {
	b := FromDense(1, mathx.Vec{1, 2, 3})
	if b.IsSparse() || b.Dim() != 3 || b.ID != 1 {
		t.Fatalf("bad dense blob: %+v", b)
	}
	if v := b.DenseVec(); v[2] != 3 {
		t.Fatalf("DenseVec = %v", v)
	}
}

func TestFromSparse(t *testing.T) {
	s := mathx.NewSparse(5, []int{1, 3}, []float64{2, 4})
	b := FromSparse(2, s)
	if !b.IsSparse() || b.Dim() != 5 {
		t.Fatalf("bad sparse blob: %+v", b)
	}
	d := b.DenseVec()
	if d[1] != 2 || d[3] != 4 || d[0] != 0 {
		t.Fatalf("DenseVec = %v", d)
	}
}

// TestBlobIs48Bytes: blobs are copied by value into scan slabs and filter
// batches; anything added to the struct is paid for on every copy.
func TestBlobIs48Bytes(t *testing.T) {
	if size := unsafe.Sizeof(Blob{}); size != 48 {
		t.Fatalf("Blob is %d bytes, want 48: keep payloads behind a pointer", size)
	}
}

func TestTruthVal(t *testing.T) {
	keys := NewTruthKeys("speed", "lane")
	b := Blob{Truth: keys.Row(65, 2)}
	if v, ok := b.TruthVal("speed"); !ok || v != 65 {
		t.Fatal("TruthVal miss")
	}
	if v, ok := b.TruthVal("absent"); ok || v != 0 {
		t.Fatalf("TruthVal on a missing key = %v, %v", v, ok)
	}
	if v, ok := (Blob{ID: 1}).TruthVal("speed"); ok || v != 0 {
		t.Fatalf("TruthVal on a blob without truth = %v, %v", v, ok)
	}
}

// TestTruthRowsShareKeysNotValues: rows cut from one slab answer for their
// own blob only, and a write to one does not show through its neighbour.
func TestTruthRowsShareKeysNotValues(t *testing.T) {
	keys := NewTruthKeys("t", "s")
	rows := keys.Rows(3)
	for i := range rows {
		rows[i].Vals[0], rows[i].Vals[1] = float64(i), float64(10*i)
	}
	rows[1].Vals = append(rows[1].Vals, 99) // must not land in rows[2]
	for i := range rows {
		b := Blob{ID: i, Truth: &rows[i]}
		if v, ok := b.TruthVal("t"); !ok || v != float64(i) {
			t.Fatalf("blob %d: t = %v, %v", i, v, ok)
		}
		if v, ok := b.TruthVal("s"); !ok || v != float64(10*i) {
			t.Fatalf("blob %d: s = %v, %v", i, v, ok)
		}
	}
	if rows[0].keys != rows[2].keys {
		t.Fatal("rows of one dataset do not share their key list")
	}
}

func makeSet(n, npos int) Set {
	var s Set
	for i := 0; i < n; i++ {
		s.Append(FromDense(i, mathx.Vec{float64(i)}), i < npos)
	}
	return s
}

func TestSetSelectivity(t *testing.T) {
	s := makeSet(10, 3)
	if s.Positives() != 3 {
		t.Fatalf("Positives = %d", s.Positives())
	}
	if s.Selectivity() != 0.3 {
		t.Fatalf("Selectivity = %v", s.Selectivity())
	}
	if (Set{}).Selectivity() != 0 {
		t.Fatal("empty selectivity should be 0")
	}
}

func TestSplitFractionsAndDisjointness(t *testing.T) {
	s := makeSet(100, 40)
	train, val, test := s.Split(mathx.NewRNG(1), 0.6, 0.2)
	if train.Len() != 60 || val.Len() != 20 || test.Len() != 20 {
		t.Fatalf("split sizes = %d/%d/%d", train.Len(), val.Len(), test.Len())
	}
	seen := map[int]bool{}
	for _, sub := range []Set{train, val, test} {
		for _, b := range sub.Blobs {
			if seen[b.ID] {
				t.Fatalf("blob %d appears twice", b.ID)
			}
			seen[b.ID] = true
		}
	}
	if len(seen) != 100 {
		t.Fatalf("lost blobs: %d", len(seen))
	}
}

func TestSplitPreservesLabels(t *testing.T) {
	s := makeSet(50, 20)
	train, val, test := s.Split(mathx.NewRNG(2), 0.5, 0.3)
	total := train.Positives() + val.Positives() + test.Positives()
	if total != 20 {
		t.Fatalf("labels lost in split: %d positives", total)
	}
}

func TestSampleSize(t *testing.T) {
	s := makeSet(100, 50)
	sub := s.Sample(mathx.NewRNG(3), 10)
	if sub.Len() != 10 {
		t.Fatalf("Sample len = %d", sub.Len())
	}
	// Sampling more than available returns the whole set.
	all := s.Sample(mathx.NewRNG(3), 1000)
	if all.Len() != 100 {
		t.Fatalf("over-sample len = %d", all.Len())
	}
}

func TestAnySparseAndDim(t *testing.T) {
	var s Set
	s.Append(FromDense(0, mathx.Vec{1, 2}), true)
	if s.AnySparse() {
		t.Fatal("dense set reported sparse")
	}
	if s.Dim() != 2 {
		t.Fatalf("Dim = %d", s.Dim())
	}
	s.Append(FromSparse(1, mathx.NewSparse(2, nil, nil)), false)
	if !s.AnySparse() {
		t.Fatal("sparse not detected")
	}
	if (Set{}).Dim() != 0 {
		t.Fatal("empty Dim should be 0")
	}
}

// splitRef and sampleRef are Split and Sample as they were written before
// their parts were allocated at exact size: one Append per blob. They are
// the oracle of TestSplitAndSampleMatchReference.
func splitRef(s Set, rng *mathx.RNG, trainFrac, valFrac float64) (train, val, test Set) {
	n := s.Len()
	perm := rng.Perm(n)
	nTrain := int(trainFrac * float64(n))
	nVal := int(valFrac * float64(n))
	for i, p := range perm {
		switch {
		case i < nTrain:
			train.Append(s.Blobs[p], s.Labels[p])
		case i < nTrain+nVal:
			val.Append(s.Blobs[p], s.Labels[p])
		default:
			test.Append(s.Blobs[p], s.Labels[p])
		}
	}
	return train, val, test
}

func sampleRef(s Set, rng *mathx.RNG, n int) Set {
	if n >= s.Len() {
		return s
	}
	perm := rng.Perm(s.Len())
	var out Set
	for _, p := range perm[:n] {
		out.Append(s.Blobs[p], s.Labels[p])
	}
	return out
}

// sameSet reports whether a and b hold the same blobs, by ID, with the same
// labels in the same order, and are both empty sets or both not.
func sameSet(a, b Set) bool {
	if a.Len() != b.Len() || len(a.Labels) != len(b.Labels) || (a.Blobs == nil) != (b.Blobs == nil) {
		return false
	}
	for i := range a.Blobs {
		if a.Blobs[i].ID != b.Blobs[i].ID || a.Labels[i] != b.Labels[i] {
			return false
		}
	}
	return true
}

// TestSplitAndSampleMatchReference holds Split and Sample to the
// one-Append-per-blob versions above: the same blobs with the same labels
// in the same order in every part, for set sizes from 0 to 1 000 and for
// fractions that sum to 1, to less, to more, and that are negative or
// above 1.
func TestSplitAndSampleMatchReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 100, 1000} {
		var s Set
		for i := 0; i < n; i++ {
			s.Append(FromDense(i, mathx.Vec{float64(i)}), i*7%5 < 2)
		}
		for k, f := range [][2]float64{{0.6, 0.2}, {0.8, 0.2}, {0.5, 0.3}, {1, 0}, {0, 0}, {0, 1}, {0.7, 0.5}, {-0.1, 0.5}, {1.2, 0}, {0.3, -0.2}} {
			seed := uint64(n*31 + k)
			gTrain, gVal, gTest := s.Split(mathx.NewRNG(seed), f[0], f[1])
			wTrain, wVal, wTest := splitRef(s, mathx.NewRNG(seed), f[0], f[1])
			if !sameSet(gTrain, wTrain) || !sameSet(gVal, wVal) || !sameSet(gTest, wTest) {
				t.Fatalf("n=%d Split(%v, %v): parts %d/%d/%d, reference %d/%d/%d or a different order",
					n, f[0], f[1], gTrain.Len(), gVal.Len(), gTest.Len(), wTrain.Len(), wVal.Len(), wTest.Len())
			}
		}
		for _, m := range []int{0, 1, n / 3, n - 1, n, n + 5} {
			if m < 0 {
				continue
			}
			seed := uint64(n*17 + m)
			if got, want := s.Sample(mathx.NewRNG(seed), m), sampleRef(s, mathx.NewRNG(seed), m); !sameSet(got, want) {
				t.Fatalf("n=%d Sample(%d): %d blobs, reference %d or a different order", n, m, got.Len(), want.Len())
			}
		}
	}
}

// TestSplitAndSampleAllocateEachPartOnce counts one allocation for the
// shuffle and two per non-empty part (its blobs and its labels).
func TestSplitAndSampleAllocateEachPartOnce(t *testing.T) {
	s := makeSet(1000, 300)
	rng := mathx.NewRNG(9)
	if got := testing.AllocsPerRun(5, func() { s.Split(rng, 0.6, 0.2) }); got != 7 {
		t.Errorf("Split 60/20/20 allocated %v times, want 7", got)
	}
	if got := testing.AllocsPerRun(5, func() { s.Split(rng, 0.8, 0.2) }); got != 5 {
		t.Errorf("Split 80/20 allocated %v times, want 5", got)
	}
	if got := testing.AllocsPerRun(5, func() { s.Sample(rng, 250) }); got != 3 {
		t.Errorf("Sample allocated %v times, want 3", got)
	}
}
