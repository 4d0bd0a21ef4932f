package core

import (
	"fmt"
	"testing"

	"probpred/internal/blob"
	"probpred/internal/mathx"
)

// denseBatchSet generates n dense gaussian blobs labeled by a random
// hyperplane, giving every classifier family structure to learn.
func denseBatchSet(n, dim int, seed uint64) blob.Set {
	rng := mathx.NewRNG(seed)
	w := make(mathx.Vec, dim)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	var set blob.Set
	for i := 0; i < n; i++ {
		v := make(mathx.Vec, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		set.Append(blob.FromDense(i, v), mathx.Dot(w, v) >= 0)
	}
	return set
}

// sparseBatchSet generates sparse blobs (bag-of-words-like) labeled by the
// presence of a marker token, exercising the sparse branches of the batch
// reducers.
func sparseBatchSet(n, dim int, seed uint64) blob.Set {
	rng := mathx.NewRNG(seed)
	var set blob.Set
	for i := 0; i < n; i++ {
		var idx []int
		var val []float64
		for k := 0; k < 20; k++ {
			idx = append(idx, rng.Intn(dim))
			val = append(val, 1+rng.Float64())
		}
		label := rng.Bernoulli(0.4)
		if label {
			idx = append(idx, 7)
			val = append(val, 3.0)
		}
		set.Append(blob.FromSparse(i, mathx.NewSparse(dim, idx, val)), label)
	}
	return set
}

// trainBatchPP trains one PP per approach over the right blob kind.
func trainBatchPP(t *testing.T, approach string, seed uint64) (*PP, []blob.Blob) {
	t.Helper()
	var set blob.Set
	if approach == "FH+SVM" {
		set = sparseBatchSet(700, 400, seed)
	} else {
		set = denseBatchSet(700, 24, seed)
	}
	rng := mathx.NewRNG(seed ^ 0x11)
	train, val, test := set.Split(rng, 0.5, 0.25)
	cfg := TrainConfig{Approach: approach, Seed: seed}
	if approach == "DNN" {
		cfg.DNN.Epochs = 5
	}
	pp, err := Train("batch."+approach, train, val, cfg)
	if err != nil {
		t.Fatalf("training %s: %v", approach, err)
	}
	return pp, test.Blobs
}

// TestScoreBatchMatchesScalar is the bit-identicality contract: for every
// built-in approach, ScoreBatch must equal per-row Score exactly (==, not
// within epsilon), on the plain and the negated PP.
func TestScoreBatchMatchesScalar(t *testing.T) {
	for _, approach := range []string{"FH+SVM", "PCA+KDE", "Raw+SVM", "DNN"} {
		t.Run(approach, func(t *testing.T) {
			pp, blobs := trainBatchPP(t, approach, 42)
			neg, err := pp.Negate("!" + pp.Clause)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*PP{pp, neg} {
				got := make([]float64, len(blobs))
				p.ScoreBatch(blobs, got)
				for i, b := range blobs {
					want := p.Score(b)
					if got[i] != want {
						t.Fatalf("%s negated=%v row %d: ScoreBatch=%v Score=%v",
							approach, p.Negated(), i, got[i], want)
					}
				}
			}
		})
	}
}

// TestEvaluateUsesBatchPath pins Evaluate to the same numbers a scalar
// reimplementation produces.
func TestEvaluateUsesBatchPath(t *testing.T) {
	pp, blobs := trainBatchPP(t, "Raw+SVM", 9)
	labels := make([]bool, len(blobs))
	for i, b := range blobs {
		labels[i] = pp.Score(b) > 0 // synthetic relabeling; only consistency matters
	}
	test := blob.Set{Blobs: blobs, Labels: labels}
	m := Evaluate(pp, test, 0.95)
	th := pp.Threshold(0.95)
	pass := 0
	for _, b := range blobs {
		if pp.Score(b) >= th {
			pass++
		}
	}
	if want := 1 - float64(pass)/float64(len(blobs)); m.Reduction != want {
		t.Fatalf("Evaluate reduction %v, scalar recomputation %v", m.Reduction, want)
	}
}

func BenchmarkScoreBatchRawSVM(b *testing.B) {
	set := denseBatchSet(2048, 64, 3)
	rng := mathx.NewRNG(5)
	train, val, _ := set.Split(rng, 0.6, 0.2)
	pp, err := Train("bench", train, val, TrainConfig{Approach: "Raw+SVM", Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float64, len(set.Blobs))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pp.ScoreBatch(set.Blobs, out)
	}
	_ = fmt.Sprint(out[0])
}

// TestScoreBatchDoesNotAllocate pins the steady state the paper's "cheap
// enough for every blob" premise needs: once the pools are warm, scoring a
// batch allocates nothing — no per-call buffer, no boxed pool holder.
func TestScoreBatchDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	for _, approach := range []string{"FH+SVM", "PCA+KDE", "Raw+SVM", "DNN"} {
		pp, blobs := trainBatchPP(t, approach, 61)
		scores := make([]float64, len(blobs))
		if n := testing.AllocsPerRun(20, func() {
			pp.ScoreBatch(blobs, scores)
		}); n != 0 {
			t.Errorf("%s: ScoreBatch allocates %v times per call, want 0", approach, n)
		}
	}
}
