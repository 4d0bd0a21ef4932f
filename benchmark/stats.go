package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: a p99 read from two samples is a maximum, not a percentile.
const minBeyond = 10

// quantile returns the exact nearest-rank q-quantile of sorted (ascending):
// the smallest sample with at least a share q of the samples at or below it.
// It returns 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// samplesBeyond counts the samples strictly above the q-quantile's rank.
func samplesBeyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// supported reports whether n samples carry the q-quantile under the
// "at least ten samples beyond it" rule.
func supported(n int, q float64) bool { return samplesBeyond(n, q) >= minBeyond }

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the mean of the two middle samples for even counts, so that two
// repeats report their midpoint.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1 and Q3 as Python's statistics.quantiles(xs, n=4)
// gives them (the "exclusive" method), which is what the driver computes.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the run-to-run spread of one metric as a share of its median:
// the interquartile distance for four or more runs, the full range below
// that (two repeats have no quartiles worth the name).
func spread(xs []float64) float64 {
	med := median(xs)
	if len(xs) < 2 || med == 0 {
		return 0
	}
	if len(xs) < 4 {
		s := sortedCopy(xs)
		return (s[len(s)-1] - s[0]) / math.Abs(med)
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// blockRates cuts a closed-loop slice's completion times (seconds from the
// slice start, ascending) into blocks of block completions — one full cycle
// of the query mix, so blocks hold equal work — and returns each block's
// rate. The median over blocks is the steady throughput: a one-off stall
// spoils one block and does not move it. A slice too short for two blocks
// gives its whole-slice rate.
func blockRates(done []float64, block int) []float64 {
	var rates []float64
	for hi := 2*block - 1; hi < len(done); hi += block {
		if d := done[hi] - done[hi-block]; d > 0 {
			rates = append(rates, float64(block)/d)
		}
	}
	if len(rates) == 0 && len(done) > 0 && done[len(done)-1] > 0 {
		rates = append(rates, float64(len(done))/done[len(done)-1])
	}
	return rates
}
