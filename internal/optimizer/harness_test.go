package optimizer

import (
	"testing"

	"probpred/internal/blob"
	"probpred/internal/testkit"
)

// miniCorpus is the kit's PP set over validation blobs as a corpus.
func miniCorpus(t testing.TB, val []blob.Blob) *Corpus {
	t.Helper()
	c := NewCorpus()
	for _, pp := range testkit.PPs(t, val) {
		c.Add(pp)
	}
	return c
}
