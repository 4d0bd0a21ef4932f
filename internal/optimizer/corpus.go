// Package optimizer implements the paper's query-optimizer extension (§6 +
// Appendix A): given a complex or previously-unseen query predicate, a corpus
// of PPs trained for simple clauses, and a query-wide accuracy target, it
// generates implied PP expressions (rewrite rules R1-R4 and the wrangler of
// A.2), allocates the accuracy budget across PPs, costs conjunctions and
// disjunctions with the formulas of Eq. 9/10, and emits the cheapest plan.
package optimizer

import (
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"probpred/internal/core"
	"probpred/internal/query"
)

// Corpus is the set of trained PPs available to the optimizer, indexed by
// the canonical string of the simple clause each PP mimics.
//
// A Corpus is safe for concurrent use and guards itself: readers load one
// immutable snapshot and never block; Add and Remove build the next snapshot
// under a writer-only mutex and publish it in one atomic store. A plan search
// loads a snapshot once and consults only it, so a search is a pure function
// of (predicate, options, snapshot) however many searches, trainings and
// watchdog trips run beside it.
type Corpus struct {
	// mu orders writers. Readers never take it.
	mu   sync.Mutex
	snap atomic.Pointer[snapshot]
}

// snapshot is one immutable state of the corpus. Nothing reachable from a
// published snapshot is written again, except each entry's once-only negation
// derivation, which is a pure function of the entry.
type snapshot struct {
	// version counts the mutations (Add/Remove) that led to this snapshot.
	// Plan caches record the version a plan was searched on and treat entries
	// from older versions as stale: a watchdog trip (Remove) or an online
	// retraining (Add) must not keep serving plans compiled against the
	// previous corpus.
	version uint64
	pps     map[string]*ppEntry
	// clauses is the sorted key set of pps.
	clauses []string
	// clauseVer maps each dependency key ever mutated — a clause key, plus
	// the "col:<column>" wildcard covering every clause on that column — to
	// the version of its latest mutation. It is what makes plan-cache
	// invalidation partial: a plan records the keys its search consulted, and
	// a later corpus mutation only strands plans whose keys actually moved.
	clauseVer map[string]uint64
}

// ppEntry is one directly-trained PP and, beside it, the PP derived from it
// by negation reuse (§5.6). Snapshots carry an entry forward by pointer until
// its clause is replaced or removed, so a derived PP keeps one identity for as
// long as its base does — what score caches key on — and dies with it.
type ppEntry struct {
	pp *core.PP
	// neg is pp.Negate under the negated clause's key, derived on first use
	// (nil when the curve cannot be negated).
	negOnce sync.Once
	neg     *core.PP
}

func (e *ppEntry) negation(clause string) (*core.PP, bool) {
	e.negOnce.Do(func() { e.neg, _ = e.pp.Negate(clause) }) // an error leaves neg nil
	return e.neg, e.neg != nil
}

// consulted collects the dependency keys one plan search asks a snapshot
// about — hits and misses alike, since a miss that later becomes a hit changes
// the search outcome too. It belongs to the search, not the corpus. A nil set
// records nothing.
type consulted map[string]struct{}

func (c consulted) note(key string) {
	if c != nil {
		c[key] = struct{}{}
	}
}

func (c consulted) sorted() []string {
	deps := make([]string, 0, len(c))
	for k := range c {
		deps = append(deps, k)
	}
	sort.Strings(deps)
	return deps
}

// NewCorpus returns an empty corpus.
func NewCorpus() *Corpus {
	c := &Corpus{}
	c.snap.Store(&snapshot{pps: map[string]*ppEntry{}, clauseVer: map[string]uint64{}})
	return c
}

// Version returns the corpus mutation counter. It increases on every Add and
// successful Remove; equal versions guarantee an unchanged PP set. Safe for
// concurrent use.
func (c *Corpus) Version() uint64 { return c.snap.Load().version }

// ColumnDep returns the dependency key covering every clause on a column.
// Searches consult it implicitly whenever they touch a clause on the column
// (relaxed comparisons and domain rewrites generate same-column candidates
// from the corpus's key set, not from individual lookups).
func ColumnDep(col string) string { return "col:" + col }

// UnchangedSince reports whether none of the dependency keys has been
// mutated after corpus version since. Plan caches use it to revalidate
// entries from older corpus versions: a mutation that left every key a plan
// consulted untouched cannot have changed the search outcome, so the plan is
// still exactly what a fresh search would produce. Safe for concurrent use.
func (c *Corpus) UnchangedSince(deps []string, since uint64) bool {
	ver := c.snap.Load().clauseVer
	for _, d := range deps {
		if ver[d] > since {
			return false
		}
	}
	return true
}

// set publishes the successor of the current snapshot, in which clause maps to
// e (nil deletes it), reporting false when there was nothing to delete. The
// mutated clause key — with its column wildcard, when the key parses as a
// simple clause — is stamped with the new version. Version, stamps and PP set
// become visible in one store, so no reader sees one without the others.
func (c *Corpus) set(clause string, e *ppEntry) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.snap.Load()
	if _, ok := old.pps[clause]; e == nil && !ok {
		return false
	}
	next := &snapshot{version: old.version + 1, pps: maps.Clone(old.pps), clauseVer: maps.Clone(old.clauseVer)}
	if e == nil {
		delete(next.pps, clause)
	} else {
		next.pps[clause] = e
	}
	next.clauses = make([]string, 0, len(next.pps))
	for k := range next.pps {
		next.clauses = append(next.clauses, k)
	}
	sort.Strings(next.clauses)
	next.clauseVer[clause] = next.version
	if cl, ok := parseClauseKey(clause); ok {
		next.clauseVer[ColumnDep(cl.Col)] = next.version
	}
	c.snap.Store(next)
	return true
}

// Add registers a trained PP under its clause key, replacing any previous
// PP for the same clause — and with it the PP derived from the previous one
// by negation, which wrapped the classifier that has just changed. Safe for
// concurrent use.
func (c *Corpus) Add(pp *core.PP) { c.set(pp.Clause, &ppEntry{pp: pp}) }

// Remove deletes the PP trained for the clause key, and the negation derived
// from it, reporting whether one was present. Used by the online watchdog to
// stop injecting a PP whose observed accuracy has degraded. Safe for
// concurrent use.
func (c *Corpus) Remove(clause string) bool { return c.set(clause, nil) }

// Size returns the number of directly-trained PPs. Safe for concurrent use.
func (c *Corpus) Size() int { return len(c.snap.Load().pps) }

// Clauses returns the sorted clause keys of the directly-trained PPs. Safe
// for concurrent use.
func (c *Corpus) Clauses() []string {
	return append([]string(nil), c.snap.Load().clauses...)
}

// Get returns the PP trained directly for the clause key, if any. Safe for
// concurrent use.
func (c *Corpus) Get(clause string) (*core.PP, bool) { return c.snap.Load().get(clause, nil) }

// Lookup resolves a clause to a PP: first by direct match, then by negation
// reuse — a PP trained for p yields the PP for ¬p by flipping the classifier
// sign (§5.6). The derived PP is the same object on every lookup until its
// base is replaced or removed. Safe for concurrent use.
func (c *Corpus) Lookup(cl *query.Clause) (*core.PP, bool) { return c.snap.Load().lookup(cl, nil) }

func (s *snapshot) get(clause string, deps consulted) (*core.PP, bool) {
	deps.note(clause)
	if e, ok := s.pps[clause]; ok {
		return e.pp, true
	}
	return nil, false
}

// lookup is Corpus.Lookup on this snapshot. A clause with no PP of its own
// consults its negation base whether or not the derivation already exists, so
// the keys noted depend on the snapshot alone.
func (s *snapshot) lookup(cl *query.Clause, deps consulted) (*core.PP, bool) {
	key := cl.String()
	deps.note(ColumnDep(cl.Col))
	if pp, ok := s.get(key, deps); ok {
		return pp, true
	}
	negKey := cl.Negate().String()
	deps.note(negKey)
	if base, ok := s.pps[negKey]; ok {
		return base.negation(key)
	}
	return nil, false
}
