package dimred

import (
	"testing"

	"probpred/internal/blob"
	"probpred/internal/mathx"
)

func denseBlobs(n, dim int, seed uint64) []blob.Blob {
	rng := mathx.NewRNG(seed)
	out := make([]blob.Blob, n)
	for i := range out {
		v := make(mathx.Vec, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		out[i] = blob.FromDense(i, v)
	}
	return out
}

func sparseBlobs(n, dim int, seed uint64) []blob.Blob {
	rng := mathx.NewRNG(seed)
	out := make([]blob.Blob, n)
	for i := range out {
		var idx []int
		var val []float64
		for k := 0; k < 15; k++ {
			idx = append(idx, rng.Intn(dim))
			val = append(val, rng.NormFloat64())
		}
		out[i] = blob.FromSparse(i, mathx.NewSparse(dim, idx, val))
	}
	return out
}

// TestReduceBatchMatchesReduce is the ReduceBatch contract: the flat buffer
// must hold exactly what per-row Reduce returns, bit for bit, for every
// built-in reducer on both blob representations it accepts.
func TestReduceBatchMatchesReduce(t *testing.T) {
	const dim = 40
	dense := denseBlobs(64, dim, 1)
	sparse := sparseBlobs(64, dim, 2)
	mixed := append(append([]blob.Blob{}, dense[:16]...), sparse[:16]...)

	pca, err := FitPCA(dense, 6, mathx.NewRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		r       Reducer
		batches [][]blob.Blob
	}{
		{"Identity", Identity{Dim: dim}, [][]blob.Blob{dense, sparse, mixed}},
		{"PCA", pca, [][]blob.Blob{dense}},
		{"FH", NewFeatureHash(16, 99), [][]blob.Blob{dense, sparse, mixed}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := tc.r.OutDim()
			for _, blobs := range tc.batches {
				// Run twice so the second pass hits recycled pool buffers.
				for pass := 0; pass < 2; pass++ {
					flat := make([]float64, len(blobs)*k)
					tc.r.ReduceBatch(blobs, flat)
					for i, b := range blobs {
						want := tc.r.Reduce(b)
						got := flat[i*k : (i+1)*k]
						for j := range want {
							if got[j] != want[j] {
								t.Fatalf("%s row %d dim %d: batch %v scalar %v",
									tc.name, i, j, got[j], want[j])
							}
						}
					}
				}
			}
		})
	}
}
