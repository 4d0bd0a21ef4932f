package baseline

import (
	"fmt"
	"math"
	"sort"

	"probpred/internal/blob"
	"probpred/internal/core"
	"probpred/internal/dimred"
	"probpred/internal/mathx"
)

// CorrelationScorer implements the mechanism of Joglekar et al. [27]: it
// identifies input columns whose values correlate with the user-defined
// predicate's outcome and estimates P(pass | column bucket) per column,
// accepting or rejecting inputs from those statistics without evaluating the
// predicate. Following §8.1's comparison, each dimension of the raw blob is
// treated as an input column.
//
// The scorer satisfies core.Scorer, so its accuracy/reduction trade-off is
// evaluated with exactly the same curve machinery as a PP — making the
// Table 6 comparison apples-to-apples.
type CorrelationScorer struct {
	dims    []int       // selected (most-informative) dimensions
	edges   [][]float64 // bucket edges per selected dim
	rates   [][]float64 // log P(pass|bucket)/P(pass) per selected dim
	perItem float64     // virtual cost
}

// CorrelationConfig controls training.
type CorrelationConfig struct {
	// Buckets is the number of quantile buckets per column. Zero selects 16.
	Buckets int
	// TopColumns is how many correlated columns to combine. Zero selects 3.
	TopColumns int
}

func (c *CorrelationConfig) fill() {
	if c.Buckets == 0 {
		c.Buckets = 16
	}
	if c.TopColumns == 0 {
		c.TopColumns = 3
	}
}

// TrainCorrelation fits per-column bucket statistics and keeps the most
// informative columns.
func TrainCorrelation(xs []mathx.Vec, ys []bool, cfg CorrelationConfig) (*CorrelationScorer, error) {
	if len(xs) == 0 {
		return nil, fmt.Errorf("baseline: empty training set")
	}
	if len(xs) != len(ys) {
		return nil, fmt.Errorf("baseline: %d examples but %d labels", len(xs), len(ys))
	}
	cfg.fill()
	n := len(xs)
	d := len(xs[0])
	pos := 0
	for _, y := range ys {
		if y {
			pos++
		}
	}
	if pos == 0 || pos == n {
		return nil, fmt.Errorf("baseline: single-class training set")
	}
	prior := float64(pos) / float64(n)

	type colStat struct {
		dim   int
		info  float64
		edges []float64
		rates []float64
	}
	stats := make([]colStat, 0, d)
	col := make([]float64, n)
	for j := 0; j < d; j++ {
		for i, x := range xs {
			col[i] = x[j]
		}
		edges := quantileEdges(col, cfg.Buckets)
		counts := make([]int, cfg.Buckets)
		posCounts := make([]int, cfg.Buckets)
		for i, v := range col {
			b := bucketOf(edges, v)
			counts[b]++
			if ys[i] {
				posCounts[b]++
			}
		}
		rates := make([]float64, cfg.Buckets)
		info := 0.0
		for b := range rates {
			// Laplace-smoothed conditional pass rate.
			p := (float64(posCounts[b]) + prior) / (float64(counts[b]) + 1)
			rates[b] = math.Log(p / prior)
			// Information proxy: weighted squared deviation from the prior.
			w := float64(counts[b]) / float64(n)
			info += w * (p - prior) * (p - prior)
		}
		stats = append(stats, colStat{dim: j, info: info, edges: edges, rates: rates})
	}
	sort.SliceStable(stats, func(a, b int) bool { return stats[a].info > stats[b].info })
	k := cfg.TopColumns
	if k > len(stats) {
		k = len(stats)
	}
	s := &CorrelationScorer{perItem: 0.3 + 0.02*float64(k)}
	for _, st := range stats[:k] {
		s.dims = append(s.dims, st.dim)
		s.edges = append(s.edges, st.edges)
		s.rates = append(s.rates, st.rates)
	}
	return s, nil
}

// quantileEdges returns bucket upper edges at uniform quantiles.
func quantileEdges(col []float64, buckets int) []float64 {
	sorted := append([]float64(nil), col...)
	sort.Float64s(sorted)
	edges := make([]float64, buckets-1)
	for b := 1; b < buckets; b++ {
		edges[b-1] = mathx.QuantileSorted(sorted, float64(b)/float64(buckets))
	}
	return edges
}

// bucketOf returns the bucket index for value v.
func bucketOf(edges []float64, v float64) int {
	return sort.SearchFloat64s(edges, v)
}

// Score implements core.Scorer: the summed log-likelihood-ratio over the
// selected columns.
func (s *CorrelationScorer) Score(x mathx.Vec) float64 {
	total := 0.0
	for i, dim := range s.dims {
		total += s.rates[i][bucketOf(s.edges[i], x[dim])]
	}
	return total
}

// ScoreBatch implements core.Scorer as a loop over Score.
func (s *CorrelationScorer) ScoreBatch(xs []float64, d int, out []float64) {
	for i := range out {
		out[i] = s.Score(xs[i*d : (i+1)*d])
	}
}

// Name implements core.Scorer.
func (s *CorrelationScorer) Name() string { return "Joglekar" }

// Cost implements core.Scorer.
func (s *CorrelationScorer) Cost() float64 { return s.perItem }

// JoglekarFilter trains the [27]-style filter for a clause and wraps it in
// the PP curve machinery so it can be evaluated at a target accuracy.
// reducer is Identity for the raw-input variant or a fitted PCA for the
// "PCA + Joglekar" variant of Table 6.
func JoglekarFilter(clause string, reducer dimred.Reducer, train, val blob.Set, cfg CorrelationConfig) (*core.PP, error) {
	xs := make([]mathx.Vec, train.Len())
	for i, b := range train.Blobs {
		xs[i] = reducer.Reduce(b)
	}
	scorer, err := TrainCorrelation(xs, train.Labels, cfg)
	if err != nil {
		return nil, fmt.Errorf("baseline: joglekar for %q: %w", clause, err)
	}
	return core.NewPP(clause, reducer.Name()+"+Joglekar", reducer, scorer, val)
}
