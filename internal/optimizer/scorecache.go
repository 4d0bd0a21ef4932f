package optimizer

import "probpred/internal/core"

// Cross-query PP-score caching (§6 / §2's reuse economy): PPs are trained
// once per simple clause and shared by every query whose predicate implies
// that clause, so concurrent queries over the same corpus repeatedly score
// the same (PP, blob) pairs. A ScoreCache memoizes those scores. Because a
// PP's score for a blob is a pure function of the two, a cached score is
// bit-identical to a fresh one: caching changes neither results nor virtual
// cost accounting, only the real CPU spent.

// ScoreCache memoizes per-(PP, blob) classifier scores, a batch at a time: a
// leaf probes every row still active at its point of the expression walk in
// one call, so an implementation can take its locks once per batch and
// overlap the probes' memory misses. A scalar lookup is a batch of one.
// Implementations must be safe for concurrent use — one cache is shared by
// every session of a serving process. Keys are PP identity (pointer) plus
// blob ID, so a negation-derived PP caches independently of its base (their
// scores differ in sign), and blob IDs must be unique within the corpus a
// cache serves.
type ScoreCache interface {
	// GetBatch looks up pp's cached score for each blob ID. A hit stores the
	// score at scores[i]; a miss leaves scores[i] alone and appends i to
	// miss, in ascending order. It returns the extended miss slice. ids and
	// scores share one length, and the outcome is that of looking the ids up
	// one at a time in index order (duplicates included).
	GetBatch(pp *core.PP, ids []int, scores []float64, miss []int) []int
	// PutBatch stores scores[i] as pp's score for blob ids[i], in index
	// order. Implementations may drop entries (bounded caches): a put is a
	// hint, not a guarantee.
	PutBatch(pp *core.PP, ids []int, scores []float64)
}

// WithScoreCache returns a copy of the compiled filter whose leaves consult
// cache before scoring. The receiver is not modified — compiled filters are
// shared across concurrent sessions, so cache attachment must not mutate a
// filter another session is executing. Pass/fail results, row order and
// virtual costs are identical to the uncached filter. A nil cache returns
// the receiver unchanged.
func (c *Compiled) WithScoreCache(cache ScoreCache) *Compiled {
	if c == nil || cache == nil {
		return c
	}
	return &Compiled{name: c.name, node: mapLeaves(c.node, func(l *compiledLeaf) *compiledLeaf {
		cp := *l
		cp.cache = cache
		return &cp
	})}
}

// mapLeaves returns a copy of the expression tree with every leaf replaced by
// leaf(l), in walk order; conjunctions and disjunctions are rebuilt around
// the new kids and nodes that carry no PPs (dropAllNode) are shared. It is
// how a shared compiled filter gains a cache or probes without being mutated.
func mapLeaves(n compiledNode, leaf func(*compiledLeaf) *compiledLeaf) compiledNode {
	mapKids := func(kids []compiledNode) []compiledNode {
		out := make([]compiledNode, len(kids))
		for i, k := range kids {
			out[i] = mapLeaves(k, leaf)
		}
		return out
	}
	switch v := n.(type) {
	case *compiledLeaf:
		return leaf(v)
	case *compiledConj:
		return &compiledConj{kids: mapKids(v.kids)}
	case *compiledDisj:
		return &compiledDisj{kids: mapKids(v.kids)}
	}
	return n
}
