package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"time"

	"probpred/internal/dimred"
	"probpred/internal/dnn"
	"probpred/internal/kde"
	"probpred/internal/svm"
)

// PP persistence: trained probabilistic predicates are the reusable asset of
// the whole design (§6: "our QO can support predicates ... at lower training
// and runtime costs" because PPs trained once serve many queries), so they
// can be saved and reloaded with encoding/gob. The built-in reducer and
// classifier families are registered here; callers who plug custom Scorer or
// Reducer implementations must gob.Register them before saving/loading.

func init() {
	gob.Register(&svm.Model{})
	gob.Register(&kde.Model{})
	gob.Register(&dnn.Model{})
	gob.Register(dimred.Identity{})
	gob.Register(&dimred.PCA{})
	gob.Register(dimred.FeatureHash{})
}

// ppGob is the serialized form of a PP. The curve's raw validation scores
// and labels are persisted so that negation reuse and threshold queries keep
// working after a reload.
type ppGob struct {
	Clause, Approach string
	Reducer          dimred.Reducer
	Scorer           Scorer
	Scores           []float64
	Labels           []bool
	Negated          bool
	TrainN           int
	TrainDuration    time.Duration
}

// GobEncode implements gob.GobEncoder.
func (p *PP) GobEncode() ([]byte, error) {
	scores, labels := p.curve.validation()
	g := ppGob{
		Clause: p.Clause, Approach: p.Approach,
		Reducer: p.reducer, Scorer: p.scorer,
		Scores: scores, Labels: labels,
		Negated: p.negated, TrainN: p.TrainN, TrainDuration: p.TrainDuration,
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		return nil, fmt.Errorf("core: encoding PP %q: %w", p.Clause, err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (p *PP) GobDecode(data []byte) error {
	var g ppGob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&g); err != nil {
		return fmt.Errorf("core: decoding PP: %w", err)
	}
	curve, err := NewCurve(g.Scores, g.Labels)
	if err != nil {
		return fmt.Errorf("core: decoding PP %q: %w", g.Clause, err)
	}
	p.Clause = g.Clause
	p.Approach = g.Approach
	p.reducer = g.Reducer
	p.scorer = g.Scorer
	p.curve = curve
	p.negated = g.Negated
	p.TrainN = g.TrainN
	p.TrainDuration = g.TrainDuration
	return nil
}

// Save writes the PP to w.
func (p *PP) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(p); err != nil {
		return fmt.Errorf("core: saving PP %q: %w", p.Clause, err)
	}
	return nil
}

// LoadPP reads a PP previously written with Save.
func LoadPP(r io.Reader) (*PP, error) {
	var p PP
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("core: loading PP: %w", err)
	}
	return &p, nil
}
