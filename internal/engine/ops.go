package engine

import (
	"fmt"
	"math/bits"
	"sort"
	"sync/atomic"

	"probpred/internal/blob"
	"probpred/internal/query"
)

// Operator is one node of a linear physical plan. Exec runs it
// operator-at-a-time over a whole input batch; in a run, the row-local
// operators after the source stage and after each stage boundary run a
// morsel at a time instead (rowstage.go), with the same rows and the same
// virtual cost bits.
type Operator interface {
	// Name identifies the operator in plans and statistics.
	Name() string
	// StageBoundary reports whether the operator forces a shuffle/barrier
	// (reducers, combiners, explicit barriers). Stage boundaries serialize
	// the latency model.
	StageBoundary() bool
	// Exec consumes the input batch and returns the output batch and the
	// virtual cost of the work performed — on failure, the cost of whatever
	// ran before the error. The run loop owns all accounting.
	Exec(in []Row) (out []Row, cost float64, err error)
}

// scanCost is the virtual per-row ingestion cost of a scan.
const scanCost = 0.05

// Scan is the source operator: it turns raw blobs into rows. In a run it is
// the head of the source stage (source.go), and rows are made only for the
// blobs the row stage (rowstage.go) emits.
type Scan struct{ Blobs []blob.Blob }

// Name implements Operator.
func (s *Scan) Name() string { return "Scan" }

// StageBoundary implements Operator.
func (s *Scan) StageBoundary() bool { return false }

// Exec implements Operator; it ignores its input.
func (s *Scan) Exec(_ []Row) ([]Row, float64, error) {
	out := make([]Row, len(s.Blobs))
	for i, b := range s.Blobs {
		out[i] = Row{Blob: b}
	}
	return out, scanCost * float64(len(s.Blobs)), nil
}

// Process applies a Processor UDF to every row.
type Process struct{ P Processor }

// Name implements Operator.
func (p *Process) Name() string { return p.P.Name() }

// StageBoundary implements Operator.
func (p *Process) StageBoundary() bool { return false }

// Exec implements Operator: a row stage of its own, with no retry policy.
func (p *Process) Exec(in []Row) ([]Row, float64, error) { return execLocal(p, in) }

// selectCost is the virtual per-row cost of evaluating a relational
// predicate over already-materialized columns (cheap compared to UDFs).
const selectCost = 0.01

// Select filters rows by a predicate over materialized columns (the σ
// operators of Figure 1).
type Select struct{ Pred query.Pred }

// Name implements Operator.
func (s *Select) Name() string { return "σ[" + s.Pred.String() + "]" }

// StageBoundary implements Operator.
func (s *Select) StageBoundary() bool { return false }

// Exec implements Operator: a row stage of its own.
func (s *Select) Exec(in []Row) ([]Row, float64, error) { return execLocal(s, in) }

// filter appends the positions of the morsel's rows the predicate keeps to
// keep. It walks the predicate over bitmaps of the morsel's rows (walk); when
// the walk meets a row whose evaluation fails, the morsel runs again through
// Pred.Eval a row at a time, which reports the first failure in row order.
func (s *Select) filter(w *rowWorker, keep []int32) ([]int32, error) {
	top := w.top
	out, ok := w.selected(s.Pred)
	w.top = top
	if ok {
		for k, word := range out {
			for ; word != 0; word &= word - 1 {
				keep = append(keep, int32(k*64+bits.TrailingZeros64(word)))
			}
		}
		return keep, nil
	}
	l := w.look
	l.m = &w.m
	for i := range w.m.len() {
		l.i = i
		ok, err := s.Pred.Eval(l.fn)
		if err != nil {
			return nil, fmt.Errorf("engine: select: %w", err)
		}
		if ok {
			keep = append(keep, int32(i))
		}
	}
	return keep, nil
}

// selected walks p over all the morsel's rows and returns the bitmap of
// those that pass, taken off the worker's bitmap stack, and whether the walk
// held (walk).
func (w *rowWorker) selected(p query.Pred) ([]uint64, bool) {
	n := w.m.len()
	nw := (n + 63) / 64
	act, out := w.bitmap(nw), w.bitmap(nw)
	for k := range act {
		act[k] = ^uint64(0)
	}
	if r := n % 64; r != 0 {
		act[nw-1] = 1<<r - 1
	}
	return out, w.walk(p, act, out)
}

// walk sets in out which of the morsel rows set in act pass p, testing a node
// only on the rows its ancestors leave undecided, as Pred.Eval's short
// circuit does: a conjunction narrows the active rows kid by kid, a
// disjunction settles a kid's passing rows and drops them from the later
// kids' active rows, a negation complements within them. It reports false
// when an active row's evaluation would fail — a missing column, a type
// mismatch, a string ordering — or p is a predicate type it does not know.
func (w *rowWorker) walk(p query.Pred, act, out []uint64) bool {
	switch p := p.(type) {
	case *query.Clause:
		return w.clause(p, act, out)
	case *query.And:
		copy(out, act)
		top := w.top
		kid := w.bitmap(len(act))
		for _, k := range p.Kids {
			if !w.walk(k, out, kid) {
				return false
			}
			var left uint64
			for i := range out {
				out[i] &= kid[i]
				left |= out[i]
			}
			if left == 0 {
				break
			}
		}
		w.top = top
		return true
	case *query.Or:
		clear(out)
		top := w.top
		cur, kid := w.bitmap(len(act)), w.bitmap(len(act))
		copy(cur, act)
		for _, k := range p.Kids {
			if !w.walk(k, cur, kid) {
				return false
			}
			var left uint64
			for i := range cur {
				out[i] |= kid[i]
				cur[i] &^= kid[i]
				left |= cur[i]
			}
			if left == 0 {
				break
			}
		}
		w.top = top
		return true
	case *query.Not:
		if !w.walk(p.Kid, act, out) {
			return false
		}
		for i := range out {
			out[i] = act[i] &^ out[i]
		}
		return true
	case query.True:
		copy(out, act)
		return true
	case query.False:
		clear(out)
		return true
	}
	return false
}

// clause sets in out which of the active rows pass c. It reads the newest
// column the stage added under c's name, else the base rows' column, gathered
// for the active rows into a pooled vector.
func (w *rowWorker) clause(c *query.Clause, act, out []uint64) bool {
	m := &w.m
	vals, ok := m.vector(c.Col)
	if !ok {
		if m.rows == nil {
			clear(out)
			return !anySet(act) // a source blob has no columns
		}
		vals = w.takeVec(m.len())
		defer w.giveVec(vals)
		for k, word := range act {
			for ; word != 0; word &= word - 1 {
				i := k*64 + bits.TrailingZeros64(word)
				v, ok := m.rows[m.pos[i]].Lookup(c.Col)
				if !ok {
					return false
				}
				vals[i] = v
			}
		}
	}
	if !c.Val.IsNum {
		if c.Op != query.OpEq && c.Op != query.OpNe {
			clear(out)
			return !anySet(act)
		}
		eq := c.Op == query.OpEq
		for k, word := range act {
			var o uint64
			for ; word != 0; word &= word - 1 {
				b := bits.TrailingZeros64(word)
				v := &vals[k*64+b]
				if v.IsNum {
					return false
				}
				if (v.Str == c.Val.Str) == eq {
					o |= 1 << b
				}
			}
			out[k] = o
		}
		return true
	}
	for k, word := range act {
		var o uint64
		for ; word != 0; word &= word - 1 {
			b := bits.TrailingZeros64(word)
			v := &vals[k*64+b]
			if !v.IsNum {
				return false
			}
			if query.CompareNum(v.Num, c.Op, c.Val.Num) {
				o |= 1 << b
			}
		}
		out[k] = o
	}
	return true
}

func anySet(b []uint64) bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// BlobFilter is the one contract through which injected probabilistic
// predicates run inside a plan: it tests raw blobs a batch at a time and
// reports the virtual cost each one incurred (which depends on short-circuit
// evaluation order inside a PP expression, §6.2). A scalar test is a batch
// of one. optimizer.Compiled is the production implementation.
type BlobFilter interface {
	Name() string
	// TestBatch fills pass[i] and cost[i] for each blob; all three slices
	// share one length. ct receives one Hit or Miss per score lookup the
	// filter resolves through a cross-query score cache; a nil ct disables
	// counting, and a filter without a cache leaves it untouched. The tally
	// belongs to ONE run, never to the filter: the same filter object is
	// shared by concurrent sessions, so counts kept on it (or diffed around
	// an operator) would interleave other runs' lookups into this run's
	// Result.
	TestBatch(blobs []blob.Blob, pass []bool, cost []float64, ct *CacheTally)
}

// CacheTally is one PPFilter position's score-cache activity during one run,
// which is its one writer. A nil tally drops the counts.
type CacheTally struct{ hits, misses atomic.Uint64 }

// Hit counts n score lookups served from the cache.
func (t *CacheTally) Hit(n uint64) {
	if t != nil {
		t.hits.Add(n)
	}
}

// Miss counts n score lookups that missed the cache.
func (t *CacheTally) Miss(n uint64) {
	if t != nil {
		t.misses.Add(n)
	}
}

// Counts returns the hits and misses tallied so far.
func (t *CacheTally) Counts() (hits, misses uint64) {
	return t.hits.Load(), t.misses.Load()
}

// PPFilter applies a PP expression directly on each raw blob, before any UDF
// (Figure 2). A plan holds at most one, as ops[1] directly after a Scan,
// where it is the source stage's filter and reads the scan's blobs in place
// (source.go); Run refuses a plan that puts one anywhere else with a
// *MisplacedFilterError.
type PPFilter struct{ F BlobFilter }

// Name implements Operator.
func (p *PPFilter) Name() string { return "PP[" + p.F.Name() + "]" }

// StageBoundary implements Operator.
func (p *PPFilter) StageBoundary() bool { return false }

// Exec implements Operator. A filter over rows is the misplaced filter Run
// refuses, so Exec returns the same error.
func (p *PPFilter) Exec([]Row) ([]Row, float64, error) {
	return nil, 0, &MisplacedFilterError{Pos: -1, Op: p.Name()}
}

// MisplacedFilterError is Run's refusal of a plan whose PPFilter is not
// ops[1] directly after a Scan: a PP runs only on the raw blobs of the
// source stage. Run returns it before it does any work.
type MisplacedFilterError struct {
	// Pos is the filter's plan position; -1 for a filter's own Exec.
	Pos int
	// Op is the filter's name.
	Op string
}

// Error implements error.
func (e *MisplacedFilterError) Error() string {
	where := "outside a plan"
	if e.Pos >= 0 {
		where = fmt.Sprintf("at plan position %d", e.Pos)
	}
	return fmt.Sprintf("engine: %s %s: a PP filter runs only directly after a Scan", e.Op, where)
}

// ComputedCol defines a projection-created column (π_{f(D)=d} in A.4).
type ComputedCol struct {
	Name string
	Cost float64
	Fn   func(Row) (query.Value, error)
}

// Project renames and/or drops columns and computes new ones.
type Project struct {
	// Rename maps old column names to new ones (π_{Ca→Cb}).
	Rename map[string]string
	// Drop lists columns to remove.
	Drop []string
	// Compute lists new columns to create.
	Compute []ComputedCol
}

// Name implements Operator.
func (p *Project) Name() string { return "π" }

// StageBoundary implements Operator.
func (p *Project) StageBoundary() bool { return false }

// Exec implements Operator: a row stage of its own.
func (p *Project) Exec(in []Row) ([]Row, float64, error) { return execLocal(p, in) }

// unitCost is the projection's virtual cost per input row.
func (p *Project) unitCost() float64 {
	cost := selectCost
	for _, c := range p.Compute {
		cost += c.Cost
	}
	return cost
}

// project appends the projection of each of the morsel's rows to out,
// making each row whole first.
func (p *Project) project(m *morsel, out []Row) ([]Row, error) {
	drop := map[string]bool{}
	for _, d := range p.Drop {
		drop[d] = true
	}
	for i := range m.len() {
		r := m.row(i)
		nr := NewRow(r.Blob)
		for _, c := range r.Columns() {
			if drop[c.Name] {
				continue
			}
			if nk, ok := p.Rename[c.Name]; ok {
				c.Name = nk
			}
			nr = nr.With(c.Name, c.Val)
		}
		for _, c := range p.Compute {
			v, err := c.Fn(nr)
			if err != nil {
				return out, fmt.Errorf("engine: project computing %q: %w", c.Name, err)
			}
			nr = nr.With(c.Name, v)
		}
		out = append(out, nr)
	}
	return out, nil
}

// joinCost is the virtual per-probe cost of a hash join lookup.
const joinCost = 0.02

// FKJoin is a foreign-key equijoin: each input (fact) row matches at most
// one row of the dimension table, whose key column is unique (the R ⋈_D S
// of A.4's pushdown rule). Unmatched rows are dropped (inner join).
type FKJoin struct {
	// LeftKey is the fact-side key column.
	LeftKey string
	// RightKey is the dimension-side key column (a primary key).
	RightKey string
	// Table is the dimension rowset.
	Table []Row
}

// Name implements Operator.
func (j *FKJoin) Name() string { return "⋈[" + j.LeftKey + "=" + j.RightKey + "]" }

// StageBoundary implements Operator; a join requires a shuffle.
func (j *FKJoin) StageBoundary() bool { return true }

// Exec implements Operator.
func (j *FKJoin) Exec(in []Row) ([]Row, float64, error) {
	// Each dimension row's columns are listed once, at build, not per probe.
	build := make(map[string][]Column, len(j.Table))
	for _, r := range j.Table {
		v, err := r.Get(j.RightKey)
		if err != nil {
			return nil, 0, fmt.Errorf("engine: fk join build: %w", err)
		}
		key := v.String()
		if _, dup := build[key]; dup {
			return nil, 0, fmt.Errorf("engine: fk join: duplicate primary key %q in dimension table", key)
		}
		build[key] = r.Columns()
	}
	var out []Row
	for _, r := range in {
		v, err := r.Get(j.LeftKey)
		if err != nil {
			return nil, 0, fmt.Errorf("engine: fk join probe: %w", err)
		}
		dim, ok := build[v.String()]
		if !ok {
			continue
		}
		nr := r
		for _, c := range dim {
			if c.Name == j.RightKey {
				continue
			}
			nr = nr.With(c.Name, c.Val)
		}
		out = append(out, nr)
	}
	return out, joinCost * float64(len(in)), nil
}

// GroupReduce applies a Reducer UDF per key group (a
// partition-shuffle-aggregate, §4).
type GroupReduce struct{ R Reducer }

// Name implements Operator.
func (g *GroupReduce) Name() string { return g.R.Name() }

// StageBoundary implements Operator.
func (g *GroupReduce) StageBoundary() bool { return true }

// Exec implements Operator.
func (g *GroupReduce) Exec(in []Row) ([]Row, float64, error) {
	groups := map[string][]Row{}
	var keys []string
	for _, r := range in {
		k, err := g.R.Key(r)
		if err != nil {
			return nil, 0, fmt.Errorf("engine: reducer %s key: %w", g.R.Name(), err)
		}
		if _, seen := groups[k]; !seen {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], r)
	}
	sort.Strings(keys) // deterministic output order
	var out []Row
	for _, k := range keys {
		rows, err := g.R.Reduce(k, groups[k])
		if err != nil {
			return nil, 0, fmt.Errorf("engine: reducer %s: %w", g.R.Name(), err)
		}
		out = append(out, rows...)
	}
	return out, g.R.Cost() * float64(len(in)), nil
}

// Combine applies a Combiner UDF across two keyed rowsets (a custom join,
// §4). The right side is provided as a static rowset.
type Combine struct {
	C        Combiner
	Right    []Row
	LeftKey  string
	RightKey string
}

// Name implements Operator.
func (c *Combine) Name() string { return c.C.Name() }

// StageBoundary implements Operator.
func (c *Combine) StageBoundary() bool { return true }

// Exec implements Operator.
func (c *Combine) Exec(in []Row) ([]Row, float64, error) {
	rights := map[string][]Row{}
	for _, r := range c.Right {
		v, err := r.Get(c.RightKey)
		if err != nil {
			return nil, 0, fmt.Errorf("engine: combine right: %w", err)
		}
		rights[v.String()] = append(rights[v.String()], r)
	}
	lefts := map[string][]Row{}
	var keys []string
	for _, r := range in {
		v, err := r.Get(c.LeftKey)
		if err != nil {
			return nil, 0, fmt.Errorf("engine: combine left: %w", err)
		}
		k := v.String()
		if _, seen := lefts[k]; !seen {
			keys = append(keys, k)
		}
		lefts[k] = append(lefts[k], r)
	}
	sort.Strings(keys)
	var out []Row
	pairs := 0
	for _, k := range keys {
		r, ok := rights[k]
		if !ok {
			continue
		}
		rows, err := c.C.Combine(k, lefts[k], r)
		if err != nil {
			return nil, 0, fmt.Errorf("engine: combiner %s: %w", c.C.Name(), err)
		}
		pairs += len(lefts[k]) + len(r)
		out = append(out, rows...)
	}
	return out, c.C.Cost() * float64(pairs), nil
}

// Barrier is a no-op stage boundary; plan builders insert it to model
// materialization points (e.g. SortP's serialized conditional stages, §8.2).
type Barrier struct{ Label string }

// Name implements Operator.
func (b *Barrier) Name() string { return "Barrier[" + b.Label + "]" }

// StageBoundary implements Operator.
func (b *Barrier) StageBoundary() bool { return true }

// Exec implements Operator.
func (b *Barrier) Exec(in []Row) ([]Row, float64, error) { return in, 0, nil }
