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
