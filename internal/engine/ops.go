package engine

import (
	"fmt"
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
// keep, evaluating it through l.
func (s *Select) filter(m *morsel, l *rowLookup, keep []int32) ([]int32, error) {
	l.m = m
	for i := range m.len() {
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

// CacheTally is one PPFilter position's score-cache activity during one run.
// The run's parallel chunks share it, hence atomics — the filter counts from
// whichever worker goroutine is scoring. A nil tally drops the counts.
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
// (Figure 2). Directly after the Scan it is part of the source stage and
// reads the scan's blobs in place (source.go).
type PPFilter struct{ F BlobFilter }

// Name implements Operator.
func (p *PPFilter) Name() string { return "PP[" + p.F.Name() + "]" }

// StageBoundary implements Operator.
func (p *PPFilter) StageBoundary() bool { return false }

// Exec implements Operator for a filter over rows, score-cache counts
// dropped (a standalone Exec has no run to attribute them to). In a run, a
// filter a plan puts after another operator — which no plan builder in the
// tree does — is a row-stage operator (filterMorsel).
func (p *PPFilter) Exec(in []Row) ([]Row, float64, error) { return execLocal(p, in) }

// filterMorsel gathers the morsel's blobs into s, tests them through the
// filter's kernel, adds each blob's cost onto *total in order and appends
// the positions of the rows that pass to keep.
func (p *PPFilter) filterMorsel(m *morsel, s *filterScratch, total *float64, ct *CacheTally, keep []int32) []int32 {
	n := m.len()
	s.reserve(n)
	blobs, pass, cost := s.blobBuf(n), s.pass[:n], s.cost[:n]
	for i := range blobs {
		blobs[i] = *m.blob(i)
	}
	p.F.TestBatch(blobs, pass, cost, ct)
	for i, ok := range pass {
		*total += cost[i]
		if ok {
			keep = append(keep, int32(i))
		}
	}
	return keep
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

// topkCost is the virtual per-row cost of heap maintenance in TopK.
const topkCost = 0.02

// TopK keeps the K rows with the largest (or smallest) value of a numeric
// column — the ORDER BY ... LIMIT tail of ranked-alert queries ("the ten
// fastest speeding vehicles"). Output is sorted best-first. It is a stage
// boundary: ranking requires seeing every row.
type TopK struct {
	// By is the numeric ranking column.
	By string
	// K is how many rows to keep.
	K int
	// Asc ranks ascending (smallest first) instead of descending.
	Asc bool
}

// Name implements Operator.
func (t *TopK) Name() string { return fmt.Sprintf("TopK[%s,%d]", t.By, t.K) }

// StageBoundary implements Operator.
func (t *TopK) StageBoundary() bool { return true }

// Exec implements Operator.
func (t *TopK) Exec(in []Row) ([]Row, float64, error) {
	if t.K <= 0 {
		return nil, 0, fmt.Errorf("engine: TopK requires K >= 1, got %d", t.K)
	}
	type keyed struct {
		key float64
		idx int // original position, for deterministic tie-breaks
		row Row
	}
	rows := make([]keyed, 0, len(in))
	for i, r := range in {
		v, err := r.Get(t.By)
		if err != nil {
			return nil, 0, fmt.Errorf("engine: TopK: %w", err)
		}
		if !v.IsNum {
			return nil, 0, fmt.Errorf("engine: TopK over non-numeric column %q", t.By)
		}
		rows = append(rows, keyed{key: v.Num, idx: i, row: r})
	}
	sort.SliceStable(rows, func(a, b int) bool {
		if rows[a].key != rows[b].key {
			if t.Asc {
				return rows[a].key < rows[b].key
			}
			return rows[a].key > rows[b].key
		}
		return rows[a].idx < rows[b].idx
	})
	if len(rows) > t.K {
		rows = rows[:t.K]
	}
	out := make([]Row, len(rows))
	for i, kr := range rows {
		out[i] = kr.row
	}
	return out, topkCost * float64(len(in)), nil
}
