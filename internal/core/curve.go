package core

import (
	"fmt"
	"math"
	"sort"
)

// Curve is the accuracy-versus-data-reduction profile of a PP, computed on a
// held-out validation set (§5.6: the classifiers are trained on 𝒟_train but
// r(a] is calculated on 𝒟_val).
//
// The decision rule is PP(x) = +1 iff f(ψ(x)) ≥ th(a] (Eq. 2) where th(a] is
// the largest threshold that still lets an a-fraction of the +1-labeled
// validation blobs pass (Eq. 3, Figure 5). The reduction rate r(a] is the
// fraction of all validation blobs that fall below the threshold (Eq. 4).
type Curve struct {
	scores []float64 // raw validation scores, parallel to labels
	labels []bool
	pos    []float64 // sorted ascending scores of +1 blobs
	neg    []float64 // sorted ascending scores of −1 blobs
	// flipped marks the curve of the negated predicate (§5.6): every score
	// has its sign flipped and every label is inverted. Such a curve owns no
	// data: it shares the four slices with the curve it was negated from and
	// reads them backwards — its positives are the other's negatives, and its
	// k-th lowest score is minus the other's k-th highest — so deriving a
	// negated PP costs a corpus nothing but this struct.
	flipped bool
}

// NewCurve builds a curve from validation scores and ground-truth labels.
// It returns an error on empty or mismatched input or when the validation
// set has no positive blobs (the threshold would be undefined).
func NewCurve(scores []float64, labels []bool) (*Curve, error) {
	if len(scores) == 0 {
		return nil, fmt.Errorf("core: empty validation set for curve")
	}
	if len(scores) != len(labels) {
		return nil, fmt.Errorf("core: %d scores but %d labels", len(scores), len(labels))
	}
	nPos := 0
	for i, s := range scores {
		if math.IsNaN(s) {
			return nil, fmt.Errorf("core: NaN validation score at index %d", i)
		}
		if labels[i] {
			nPos++
		}
	}
	if nPos == 0 {
		return nil, fmt.Errorf("core: validation set has no positive blobs")
	}
	// Each slice is allocated at its final size: a corpus keeps its curves
	// for life.
	c := &Curve{
		scores: append([]float64(nil), scores...),
		labels: append([]bool(nil), labels...),
		pos:    make([]float64, 0, nPos),
		neg:    make([]float64, 0, len(scores)-nPos),
	}
	for i, s := range scores {
		if labels[i] {
			c.pos = append(c.pos, s)
		} else {
			c.neg = append(c.neg, s)
		}
	}
	sort.Float64s(c.pos)
	sort.Float64s(c.neg)
	return c, nil
}

// below and atMost count the elements of an ascending slice that are < x
// and ≤ x.
func below(s []float64, x float64) int { return sort.SearchFloat64s(s, x) }
func atMost(s []float64, x float64) int {
	return sort.Search(len(s), func(i int) bool { return s[i] > x })
}

// Positives returns the number of +1 validation blobs.
func (c *Curve) Positives() int {
	if c.flipped {
		return len(c.neg)
	}
	return len(c.pos)
}

// Threshold returns th(a] for target accuracy a ∈ (0, 1]: the largest score
// threshold under which at least ⌈a·n₊⌉ positives still pass (score ≥ th).
func (c *Curve) Threshold(a float64) float64 {
	nPos := c.Positives()
	k := int(math.Ceil(a * float64(nPos)))
	if k <= 0 {
		return math.Inf(1) // a ≤ 0 would let everything be dropped
	}
	if k > nPos {
		k = nPos
	}
	// The k highest positive scores must pass, so th is the k-th highest —
	// flipped, minus the k-th lowest of the shared negatives.
	if c.flipped {
		return -c.neg[k-1]
	}
	return c.pos[nPos-k]
}

// Reduction returns r(a]: the fraction of validation blobs with score
// strictly below th(a], i.e. the blobs the PP discards (Eq. 4).
func (c *Curve) Reduction(a float64) float64 {
	return c.ReductionAtThreshold(c.Threshold(a))
}

// ReductionAtThreshold returns the fraction of validation blobs whose score
// is strictly below th.
func (c *Curve) ReductionAtThreshold(th float64) float64 {
	n := len(c.pos) + len(c.neg)
	dropped := below(c.pos, th) + below(c.neg, th)
	if c.flipped { // −s < th exactly when s ≤ −th does not hold
		dropped = n - atMost(c.pos, -th) - atMost(c.neg, -th)
	}
	return float64(dropped) / float64(n)
}

// AccuracyAtThreshold returns the fraction of positive validation blobs with
// score ≥ th (the empirical accuracy the threshold achieves).
func (c *Curve) AccuracyAtThreshold(th float64) float64 {
	if c.flipped {
		return float64(atMost(c.neg, -th)) / float64(len(c.neg))
	}
	return float64(len(c.pos)-below(c.pos, th)) / float64(len(c.pos))
}

// Negate returns the curve of the PP for the negated predicate, reusing the
// same validation scores with signs flipped and labels inverted (§5.6:
// multiplying the classifier by −1 yields the classifier for ¬p). The result
// shares this curve's storage.
func (c *Curve) Negate() (*Curve, error) {
	neg := *c
	neg.flipped = !c.flipped
	if neg.Positives() == 0 {
		return nil, fmt.Errorf("core: validation set has no positive blobs")
	}
	return &neg, nil
}

// validation returns the raw validation scores and labels the curve stands
// for, in validation-set order.
func (c *Curve) validation() ([]float64, []bool) {
	if !c.flipped {
		return c.scores, c.labels
	}
	scores := make([]float64, len(c.scores))
	labels := make([]bool, len(c.labels))
	for i, s := range c.scores {
		scores[i], labels[i] = -s, !c.labels[i]
	}
	return scores, labels
}

// ValidationN returns the number of validation blobs behind the curve.
func (c *Curve) ValidationN() int { return len(c.scores) }

// ValidationSelectivity returns the fraction of positive validation blobs.
func (c *Curve) ValidationSelectivity() float64 {
	return float64(c.Positives()) / float64(len(c.scores))
}
