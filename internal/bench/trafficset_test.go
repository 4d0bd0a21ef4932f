package bench

import (
	"fmt"
	"testing"

	"probpred/internal/blob"
	"probpred/internal/data"
	"probpred/internal/query"
)

// trafficSetRef is data.TrafficSet as it was written before it made each
// column's converter once per call: a fresh TrafficLookup per blob and one
// Append per blob. It is the oracle of TestTrafficSetMatchesPerBlobLookup.
func trafficSetRef(blobs []blob.Blob, pred query.Pred) (blob.Set, error) {
	var s blob.Set
	for _, b := range blobs {
		ok, err := pred.Eval(data.TrafficLookup(b))
		if err != nil {
			return blob.Set{}, fmt.Errorf("data: labeling blob %d: %w", b.ID, err)
		}
		s.Append(b, ok)
	}
	return s, nil
}

// TestTrafficSetMatchesPerBlobLookup holds data.TrafficSet to the per-blob
// lookup above over every clause of the §8.2 corpus and every TRAF20
// predicate: the same labels, and the same blobs in the same order. A
// predicate on an unknown column, a blob with no ground truth and a type
// mismatch fail with the reference's error text.
func TestTrafficSetMatchesPerBlobLookup(t *testing.T) {
	blobs := data.Traffic(data.TrafficConfig{Rows: 3000, Seed: 23})
	preds := corpusClauses()
	for _, q := range TRAF20 {
		preds = append(preds, q.Pred)
	}
	for _, src := range preds {
		pred, err := query.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		got, err := data.TrafficSet(blobs, pred)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		want, _ := trafficSetRef(blobs, pred)
		if got.Len() != want.Len() || len(got.Labels) != len(want.Labels) {
			t.Fatalf("%s: %d blobs and %d labels, reference %d", src, got.Len(), len(got.Labels), want.Len())
		}
		for i := range want.Blobs {
			g, w := got.Blobs[i], want.Blobs[i]
			if g.ID != w.ID || &g.Dense[0] != &w.Dense[0] || g.Truth != w.Truth || got.Labels[i] != want.Labels[i] {
				t.Fatalf("%s: blob %d is %d labeled %v, reference %d labeled %v", src, i, g.ID, got.Labels[i], w.ID, want.Labels[i])
			}
		}
	}

	bare := append(append([]blob.Blob{}, blobs[:5]...), blob.FromDense(99, blobs[5].Dense))
	for _, c := range []struct {
		pred  string
		blobs []blob.Blob
	}{
		{"z=1", blobs},
		{"t=SUV & speed>3", blobs},
		{"t=SUV | c=red", bare},
		{"s=fast", blobs},
	} {
		pred, err := query.Parse(c.pred)
		if err != nil {
			t.Fatal(err)
		}
		_, got := data.TrafficSet(c.blobs, pred)
		_, want := trafficSetRef(c.blobs, pred)
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Fatalf("%s: error %v, reference %v", c.pred, got, want)
		}
	}
}
