package optimizer

import (
	"encoding/gob"
	"fmt"
	"io"

	"probpred/internal/core"
)

// Save writes the corpus's directly-trained PPs to w (negation-derived PPs
// are re-derived on demand after a reload and are not persisted).
func (c *Corpus) Save(w io.Writer) error {
	snap := c.snap.Load()
	pps := make([]*core.PP, 0, len(snap.pps))
	for _, clause := range snap.clauses {
		pps = append(pps, snap.pps[clause].pp)
	}
	if err := gob.NewEncoder(w).Encode(pps); err != nil {
		return fmt.Errorf("optimizer: saving corpus: %w", err)
	}
	return nil
}

// LoadCorpus reads a corpus previously written with Save.
func LoadCorpus(r io.Reader) (*Corpus, error) {
	var pps []*core.PP
	if err := gob.NewDecoder(r).Decode(&pps); err != nil {
		return nil, fmt.Errorf("optimizer: loading corpus: %w", err)
	}
	c := NewCorpus()
	for _, pp := range pps {
		c.Add(pp)
	}
	return c, nil
}
