package core

import (
	"math"
	"testing"
	"testing/quick"

	"probpred/internal/mathx"
)

// simpleCurve: positives score high, negatives low, with overlap.
func simpleCurve(t *testing.T) *Curve {
	t.Helper()
	scores := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	labels := []bool{false, false, false, false, true, false, true, true, true, true}
	c, err := NewCurve(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCurveThresholdFullAccuracy(t *testing.T) {
	c := simpleCurve(t)
	// At a=1 every positive must pass: th = min positive score = 0.5.
	if th := c.Threshold(1); th != 0.5 {
		t.Fatalf("Threshold(1) = %v, want 0.5", th)
	}
	// r(1] = fraction of scores < 0.5 = 4/10.
	if r := c.Reduction(1); r != 0.4 {
		t.Fatalf("Reduction(1) = %v, want 0.4", r)
	}
}

func TestCurveRelaxedAccuracy(t *testing.T) {
	c := simpleCurve(t)
	// 5 positives; a=0.8 needs ceil(0.8*5)=4 to pass: th = 4th-highest
	// positive = 0.7.
	if th := c.Threshold(0.8); th != 0.7 {
		t.Fatalf("Threshold(0.8) = %v, want 0.7", th)
	}
	// Scores < 0.7: six of ten.
	if r := c.Reduction(0.8); r != 0.6 {
		t.Fatalf("Reduction(0.8) = %v, want 0.6", r)
	}
}

func TestCurveMonotonicity(t *testing.T) {
	c := simpleCurve(t)
	prevR := math.Inf(1)
	for _, a := range []float64{0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0} {
		r := c.Reduction(a)
		if r > prevR {
			t.Fatalf("reduction increased as accuracy tightened: r(%v)=%v > %v", a, r, prevR)
		}
		prevR = r
	}
}

func TestCurveAccuracyAtThreshold(t *testing.T) {
	c := simpleCurve(t)
	th := c.Threshold(0.8)
	if got := c.AccuracyAtThreshold(th); got < 0.8 {
		t.Fatalf("achieved accuracy %v < target 0.8", got)
	}
}

func TestCurveErrors(t *testing.T) {
	if _, err := NewCurve(nil, nil); err == nil {
		t.Fatal("expected error for empty curve")
	}
	if _, err := NewCurve([]float64{1}, []bool{true, false}); err == nil {
		t.Fatal("expected error for mismatch")
	}
	if _, err := NewCurve([]float64{1, 2}, []bool{false, false}); err == nil {
		t.Fatal("expected error for no positives")
	}
	if _, err := NewCurve([]float64{math.NaN()}, []bool{true}); err == nil {
		t.Fatal("expected error for NaN score")
	}
}

func TestCurveNegate(t *testing.T) {
	c := simpleCurve(t)
	n, err := c.Negate()
	if err != nil {
		t.Fatal(err)
	}
	// The negated curve has the 5 former negatives as positives, with
	// negated scores; at a=1 all must pass: th = -0.6 (the lowest negated
	// negative score... i.e. -(highest original negative) = -0.6).
	if th := n.Threshold(1); th != -0.6 {
		t.Fatalf("negated Threshold(1) = %v, want -0.6", th)
	}
	if n.ValidationSelectivity() != 0.5 {
		t.Fatalf("negated selectivity = %v", n.ValidationSelectivity())
	}
}

func TestCurveDoubleNegateRoundTrips(t *testing.T) {
	c := simpleCurve(t)
	n, err := c.Negate()
	if err != nil {
		t.Fatal(err)
	}
	nn, err := n.Negate()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []float64{0.7, 0.9, 1.0} {
		if nn.Threshold(a) != c.Threshold(a) {
			t.Fatalf("double negation changed threshold at a=%v", a)
		}
		if nn.Reduction(a) != c.Reduction(a) {
			t.Fatalf("double negation changed reduction at a=%v", a)
		}
	}
}

// TestNegatedCurveReadsLikeABuiltOne: a negated curve shares its source's
// storage and reads it backwards; every answer must carry the bits of a curve
// built from the sign-flipped scores and inverted labels, ties and thresholds
// exactly on a score included.
func TestNegatedCurveReadsLikeABuiltOne(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		rng := mathx.NewRNG(seed)
		n := 2 + rng.Intn(300)
		scores := make([]float64, n)
		labels := make([]bool, n)
		for i := range scores {
			// A coarse grid: many ties. Adding 0 turns −0 into +0: among
			// scores that compare equal but differ in bits, which one holds
			// a rank is the sort's choice, in either representation.
			scores[i] = math.Round(rng.NormFloat64()*8)/8 + 0
			labels[i] = rng.Bernoulli(0.3)
		}
		labels[0], labels[1] = true, false
		c, err := NewCurve(scores, labels)
		if err != nil {
			t.Fatal(err)
		}
		view, err := c.Negate()
		if err != nil {
			t.Fatal(err)
		}
		flippedScores, flippedLabels := view.validation()
		built, err := NewCurve(flippedScores, flippedLabels)
		if err != nil {
			t.Fatal(err)
		}
		same := func(what string, x float64, got, want float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d: negated %s(%v) = %v, built curve says %v", seed, what, x, got, want)
			}
		}
		for a := 0.0; a <= 1; a += 1.0 / 256 {
			same("Threshold", a, view.Threshold(a), built.Threshold(a))
			same("Reduction", a, view.Reduction(a), built.Reduction(a))
		}
		for _, s := range flippedScores {
			for _, th := range []float64{s, math.Nextafter(s, 9), math.Nextafter(s, -9)} {
				same("ReductionAtThreshold", th, view.ReductionAtThreshold(th), built.ReductionAtThreshold(th))
				same("AccuracyAtThreshold", th, view.AccuracyAtThreshold(th), built.AccuracyAtThreshold(th))
			}
		}
		for _, th := range []float64{math.Inf(1), math.Inf(-1)} {
			same("ReductionAtThreshold", th, view.ReductionAtThreshold(th), built.ReductionAtThreshold(th))
		}
		if view.ValidationN() != built.ValidationN() || view.ValidationSelectivity() != built.ValidationSelectivity() {
			t.Fatalf("seed %d: negated curve reports %d blobs at selectivity %v, built curve %d at %v", seed,
				view.ValidationN(), view.ValidationSelectivity(), built.ValidationN(), built.ValidationSelectivity())
		}
	}
	allPositive, err := NewCurve([]float64{1, 2}, []bool{true, true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := allPositive.Negate(); err == nil {
		t.Fatal("negating a curve without negatives must fail: its negation has no positives")
	}
}

func TestCurveValidationAccessors(t *testing.T) {
	c := simpleCurve(t)
	if c.ValidationN() != 10 {
		t.Fatalf("ValidationN = %d", c.ValidationN())
	}
	if c.ValidationSelectivity() != 0.5 {
		t.Fatalf("ValidationSelectivity = %v", c.ValidationSelectivity())
	}
}

// Property: for random curves, the empirical accuracy at th(a] is always at
// least a, and reduction is in [0,1].
func TestCurveThresholdGuaranteeQuick(t *testing.T) {
	f := func(seed uint64) bool {
		rng := mathx.NewRNG(seed)
		n := 2 + rng.Intn(200)
		scores := make([]float64, n)
		labels := make([]bool, n)
		hasPos := false
		for i := range scores {
			scores[i] = rng.NormFloat64()
			labels[i] = rng.Bernoulli(0.3)
			hasPos = hasPos || labels[i]
		}
		if !hasPos {
			labels[0] = true
		}
		c, err := NewCurve(scores, labels)
		if err != nil {
			return false
		}
		for _, a := range []float64{0.5, 0.8, 0.9, 0.99, 1.0} {
			th := c.Threshold(a)
			if c.AccuracyAtThreshold(th) < a {
				return false
			}
			r := c.Reduction(a)
			if r < 0 || r > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
