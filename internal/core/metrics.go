package core

import "probpred/internal/blob"

// Metrics summarizes a PP's behaviour on a labeled test set at one target
// accuracy, using the vocabulary of §8.1.
type Metrics struct {
	// TargetAccuracy is the a the PP was parametrized with.
	TargetAccuracy float64
	// Accuracy is the empirical fraction of positive blobs that pass (the
	// fraction of the original query's output that is retained).
	Accuracy float64
	// Reduction is the empirical fraction of all blobs discarded, r_p(a].
	Reduction float64
	// Selectivity is the fraction of test blobs whose label is positive.
	Selectivity float64
	// RelativeReduction is Reduction/(1−Selectivity): the achieved fraction
	// of the maximum possible reduction (the paper's optimality measure,
	// Table 5).
	RelativeReduction float64
	// FalsePositivePass is the fraction of negative blobs that pass; the
	// downstream query still filters them, so it costs time but not
	// correctness.
	FalsePositivePass float64
	// N is the test-set size.
	N int
}

// Evaluate measures a PP on a labeled test set at target accuracy a. Scoring
// goes through the batch fast path, which is bit-identical to a scalar Score
// loop.
func Evaluate(p *PP, test blob.Set, a float64) Metrics {
	th := p.Threshold(a)
	buf := flatPool.Get(test.Len())
	scores := buf.V
	p.ScoreBatch(test.Blobs, scores)
	var pass, posPass, pos, negPass int
	for i := range test.Blobs {
		passed := scores[i] >= th
		if passed {
			pass++
		}
		if test.Labels[i] {
			pos++
			if passed {
				posPass++
			}
		} else if passed {
			negPass++
		}
	}
	flatPool.Put(buf)
	m := Metrics{TargetAccuracy: a, N: test.Len()}
	if test.Len() == 0 {
		return m
	}
	m.Selectivity = float64(pos) / float64(test.Len())
	m.Reduction = 1 - float64(pass)/float64(test.Len())
	if pos > 0 {
		m.Accuracy = float64(posPass) / float64(pos)
	} else {
		m.Accuracy = 1
	}
	if neg := test.Len() - pos; neg > 0 {
		m.FalsePositivePass = float64(negPass) / float64(neg)
	}
	if m.Selectivity < 1 {
		m.RelativeReduction = m.Reduction / (1 - m.Selectivity)
	}
	return m
}
