// Package core implements the paper's primary contribution: probabilistic
// predicates (PPs). A PP for a predicate clause p is the triple
// ⟨training set 𝒟, approach m, reduction curve r(a]⟩ (§5): a binary
// classifier over raw input blobs, parametrized by a target accuracy a, that
// discards blobs which will not satisfy p before any expensive UDF runs.
//
// The package provides construction of individual PPs with each classifier
// family the paper uses (linear SVM §5.1, KDE §5.2, DNN §5.3), dimension
// reduction (§5.4), model selection (§5.5), negation reuse and
// train/validation separation (§5.6).
package core

import (
	"fmt"
	"strings"
	"time"

	"probpred/internal/blob"
	"probpred/internal/dimred"
	"probpred/internal/dnn"
	"probpred/internal/kde"
	"probpred/internal/mathx"
	"probpred/internal/svm"
)

// Scorer is the classifier half of a PP approach: a real-valued function
// whose larger outputs mean "more likely to satisfy the predicate". The
// three families of §5 (svm.Model, kde.Model, dnn.Model) implement it.
type Scorer interface {
	Score(x mathx.Vec) float64
	// ScoreBatch scores the len(out) vectors stored row-major in xs (row i
	// is xs[i*d:(i+1)*d]) into out, bit-identical to Score on each row. A
	// scorer with no kernel of its own loops Score.
	ScoreBatch(xs []float64, d int, out []float64)
	Name() string
	// Cost is the virtual per-blob scoring cost in virtual milliseconds.
	Cost() float64
}

// TrainConfig controls PP construction.
type TrainConfig struct {
	// Approach forces a specific ψ+f combination such as "FH+SVM",
	// "PCA+KDE", "Raw+SVM" or "DNN". Empty selects automatically (§5.5).
	Approach string
	// PCADims is the PCA output dimensionality. Zero selects 8.
	PCADims int
	// FHDims is the feature-hashing output dimensionality. Zero selects 256.
	FHDims int
	// PCASample caps the number of blobs used to fit the PCA basis (§5.4:
	// the basis is computed over a small sampled subset). Zero selects 500.
	PCASample int
	// SVM, KDE and DNN pass through classifier-specific settings.
	SVM svm.Config
	KDE kde.Config
	DNN dnn.Config
	// AllowDNN lets model selection consider the DNN approach, which has a
	// much larger training cost (§5.3 usage notes).
	AllowDNN bool
	// SelectionSample is the number of blobs sampled for model selection.
	// Zero selects 400.
	SelectionSample int
	// SelectionAccuracy is the accuracy at which candidate approaches are
	// compared (Eq. 8). Zero selects the paper's 0.95.
	SelectionAccuracy float64
	// Seed drives all randomized steps.
	Seed uint64
	// Warm, when non-nil, warm-starts training from a previously trained PP:
	// the prior PP's reducer is reused (freezing the feature space so learned
	// weights stay meaningful) and, for SVM classifiers, the prior weights
	// seed the optimization. Incremental per-segment training over a stream
	// uses it so each retraining fine-tunes the previous segment's model on
	// fresh labels instead of relearning from scratch. The warm PP's approach
	// wins model selection when Approach is empty; a negation-derived or
	// approach-mismatched warm PP is ignored (cold start).
	Warm *PP
}

func (c *TrainConfig) fill() {
	if c.PCADims == 0 {
		c.PCADims = 8
	}
	if c.FHDims == 0 {
		c.FHDims = 256
	}
	if c.PCASample == 0 {
		c.PCASample = 500
	}
	if c.SelectionSample == 0 {
		c.SelectionSample = 400
	}
	if c.SelectionAccuracy == 0 {
		c.SelectionAccuracy = 0.95
	}
}

// PP is a trained probabilistic predicate.
type PP struct {
	// Clause is the canonical simple clause the PP mimics, e.g. "t=SUV".
	Clause string
	// Approach names the ψ+f combination, e.g. "PCA+KDE".
	Approach string

	reducer dimred.Reducer
	scorer  Scorer
	curve   *Curve
	negated bool

	// TrainN is the number of training blobs used.
	TrainN int
	// TrainDuration is the wall-clock training time (reported in Table 5 /
	// Table 9 analogs; it does not participate in virtual-cost planning).
	TrainDuration time.Duration
}

// Score returns the PP's classifier output for a blob.
func (p *PP) Score(b blob.Blob) float64 {
	s := p.scorer.Score(p.reducer.Reduce(b))
	if p.negated {
		return -s
	}
	return s
}

// Threshold returns th(a] from the validation curve.
func (p *PP) Threshold(a float64) float64 { return p.curve.Threshold(a) }

// Pass reports whether the blob passes the PP at target accuracy a
// (Eq. 2: f(ψ(x)) ≥ th(a]).
func (p *PP) Pass(b blob.Blob, a float64) bool {
	return p.Score(b) >= p.curve.Threshold(a)
}

// Reduction returns the expected data reduction rate r(a] estimated on the
// validation set.
func (p *PP) Reduction(a float64) float64 { return p.curve.Reduction(a) }

// Cost returns the virtual per-blob cost of applying the PP (reducer plus
// classifier), in virtual milliseconds.
func (p *PP) Cost() float64 { return p.reducer.Cost() + p.scorer.Cost() }

// Curve exposes the validation curve (read-only use).
func (p *PP) Curve() *Curve { return p.curve }

// Negated reports whether this PP was derived by negation.
func (p *PP) Negated() bool { return p.negated }

// Negate returns the PP for the negated clause, reusing the trained
// classifier with its sign flipped (§5.6). The caller provides the clause
// name for the negation (e.g. "t!=SUV" from "t=SUV").
func (p *PP) Negate(clause string) (*PP, error) {
	curve, err := p.curve.Negate()
	if err != nil {
		return nil, fmt.Errorf("core: negating PP %q: %w", p.Clause, err)
	}
	return &PP{
		Clause:        clause,
		Approach:      p.Approach,
		reducer:       p.reducer,
		scorer:        p.scorer,
		curve:         curve,
		negated:       !p.negated,
		TrainN:        p.TrainN,
		TrainDuration: p.TrainDuration,
	}, nil
}

// String renders a compact description for logs and reports.
func (p *PP) String() string {
	return fmt.Sprintf("PP[%s %s cost=%.2f r(1]=%.2f r(0.95]=%.2f]",
		p.Clause, p.Approach, p.Cost(), p.Reduction(1), p.Reduction(0.95))
}

// NewPP assembles a probabilistic predicate from an already-trained reducer
// and scorer, building its reduction curve from the labeled validation set.
// It is the extension point for classifier families beyond the built-in
// three — §5.3 notes the PP design incorporates any classifier that can be
// cast as a real-valued function with a threshold.
func NewPP(clause, approach string, reducer dimred.Reducer, scorer Scorer, val blob.Set) (*PP, error) {
	if val.Len() == 0 {
		return nil, fmt.Errorf("core: NewPP %q: empty validation set", clause)
	}
	scores := scoreAll(reducer, scorer, val.Blobs)
	curve, err := NewCurve(scores, val.Labels)
	if err != nil {
		return nil, fmt.Errorf("core: NewPP %q: %w", clause, err)
	}
	return &PP{
		Clause:   clause,
		Approach: approach,
		reducer:  reducer,
		scorer:   scorer,
		curve:    curve,
	}, nil
}

// Train constructs a PP for the given clause from a labeled training set and
// a disjoint labeled validation set (§5.6 separates the two to avoid
// overfitting the reduction curve).
func Train(clause string, train, val blob.Set, cfg TrainConfig) (*PP, error) {
	cfg.fill()
	if train.Len() == 0 || val.Len() == 0 {
		return nil, fmt.Errorf("core: training PP %q: empty train (%d) or validation (%d) set",
			clause, train.Len(), val.Len())
	}
	approach := cfg.Approach
	if approach == "" {
		if cfg.Warm != nil && !cfg.Warm.negated {
			// A warm start pins the approach: switching families would throw
			// away the carried-over model anyway, and skipping selection is
			// most of the point of incremental retraining.
			approach = cfg.Warm.Approach
		} else {
			var err error
			approach, err = SelectApproach(train, val, cfg)
			if err != nil {
				return nil, fmt.Errorf("core: selecting approach for %q: %w", clause, err)
			}
		}
	}
	start := time.Now()
	reducer, scorer, err := trainApproach(approach, train, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: training PP %q with %s: %w", clause, approach, err)
	}
	elapsed := time.Since(start)
	scores := scoreAll(reducer, scorer, val.Blobs)
	curve, err := NewCurve(scores, val.Labels)
	if err != nil {
		return nil, fmt.Errorf("core: building curve for %q: %w", clause, err)
	}
	return &PP{
		Clause:        clause,
		Approach:      approach,
		reducer:       reducer,
		scorer:        scorer,
		curve:         curve,
		TrainN:        train.Len(),
		TrainDuration: elapsed,
	}, nil
}

// trainApproach builds the reducer and classifier for one named approach.
// A compatible cfg.Warm (same approach, not negation-derived) contributes
// its reducer — freezing the feature space across retrainings — and, for
// SVM, its weights as the optimization's starting point.
func trainApproach(approach string, train blob.Set, cfg TrainConfig) (dimred.Reducer, Scorer, error) {
	redName, clsName := splitApproach(approach)
	warm := cfg.Warm
	if warm != nil && (warm.negated || warm.Approach != approach) {
		warm = nil
	}
	var reducer dimred.Reducer
	var err error
	if warm != nil {
		reducer = warm.reducer
	} else {
		reducer, err = buildReducer(redName, train, cfg)
		if err != nil {
			return nil, nil, err
		}
	}
	xs := make([]mathx.Vec, train.Len())
	for i, b := range train.Blobs {
		xs[i] = reducer.Reduce(b)
	}
	var scorer Scorer
	switch clsName {
	case "SVM":
		c := cfg.SVM
		c.Seed ^= cfg.Seed
		if warm != nil {
			if m, ok := warm.scorer.(*svm.Model); ok {
				c.Warm = m
			}
		}
		m, err := svm.Train(xs, train.Labels, c)
		if err != nil {
			return nil, nil, err
		}
		scorer = m
	case "KDE":
		c := cfg.KDE
		c.Seed ^= cfg.Seed
		m, err := kde.Train(xs, train.Labels, c)
		if err != nil {
			return nil, nil, err
		}
		scorer = m
	case "DNN":
		c := cfg.DNN
		c.Seed ^= cfg.Seed
		m, err := dnn.Train(xs, train.Labels, c)
		if err != nil {
			return nil, nil, err
		}
		scorer = m
	default:
		return nil, nil, fmt.Errorf("unknown classifier %q in approach %q", clsName, approach)
	}
	return reducer, scorer, nil
}

// splitApproach parses "ψ+f" names; a bare "DNN" means "Raw+DNN".
func splitApproach(approach string) (reducer, classifier string) {
	parts := strings.SplitN(approach, "+", 2)
	if len(parts) == 1 {
		return "Raw", strings.TrimSpace(parts[0])
	}
	return strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
}

// buildReducer constructs ψ for the named technique.
func buildReducer(name string, train blob.Set, cfg TrainConfig) (dimred.Reducer, error) {
	switch name {
	case "Raw", "":
		return dimred.Identity{Dim: train.Dim()}, nil
	case "PCA":
		sample := train.Sample(mathx.NewRNG(cfg.Seed^0x9ca), cfg.PCASample)
		return dimred.FitPCA(sample.Blobs, cfg.PCADims, mathx.NewRNG(cfg.Seed^0x9cb))
	case "FH":
		return dimred.NewFeatureHash(cfg.FHDims, cfg.Seed^0xf4), nil
	default:
		return nil, fmt.Errorf("unknown reducer %q", name)
	}
}

// Recalibrate rebuilds the PP's accuracy-versus-reduction curve from a
// fresh labeled validation set without retraining the classifier. Threshold
// choice is cheap relative to training (§5.1: "a PP parametrized for
// different accuracy thresholds can be built without retraining"), so an
// online system can re-anchor its thresholds when the input distribution
// drifts and only fall back to full retraining when recalibration is not
// enough.
func (p *PP) Recalibrate(val blob.Set) error {
	if val.Len() == 0 {
		return fmt.Errorf("core: recalibrating %q: empty validation set", p.Clause)
	}
	scores := make([]float64, val.Len())
	p.ScoreBatch(val.Blobs, scores)
	curve, err := NewCurve(scores, val.Labels)
	if err != nil {
		return fmt.Errorf("core: recalibrating %q: %w", p.Clause, err)
	}
	p.curve = curve
	return nil
}
