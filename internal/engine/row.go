// Package engine implements the relational data-parallel substrate the
// paper's system runs on (§4): rows that carry a raw blob plus
// UDF-materialized columns, Volcano-style operators (scan, processor UDF,
// select, project, foreign-key join, group/reduce, PP filter), and a
// deterministic virtual cost model.
//
// The paper evaluates on Microsoft's Cosmos cluster and reports two metrics
// (§8.2): cluster processing time (total resource usage) and query latency
// (end-to-end wall time). We reproduce both deterministically: every
// operator declares a per-row cost in virtual milliseconds; cluster time is
// the sum of per-row costs, and latency models a partitioned pipelined
// execution where stage barriers serialize (which is what makes SortP's
// latency worse than NoP's even as it saves resources, §8.2).
package engine

import (
	"fmt"
	"sort"

	"probpred/internal/blob"
	"probpred/internal/query"
)

// Row is one tuple: the originating raw blob plus the relational columns
// materialized so far. The columns are an immutable singly linked list,
// newest first, shared structurally between a row and every row derived from
// it: a scanned row has none (nil), and With prepends one node without
// copying. A blob the PP filters drop never becomes a row at all (the source
// stage, source.go), and in the row stage a survivor becomes one only if the
// stage emits it: until then its columns are values in the stage's vectors
// (batch.go). Rows hold a handful of columns (one per UDF on the plan), so a
// linear walk beats hashing.
type Row struct {
	Blob blob.Blob
	cols *column
}

// column is one node of a row's column list. Nodes are never modified after
// With returns, which is what lets concurrent readers and sibling rows share
// a tail without synchronization.
type column struct {
	name string
	val  query.Value
	next *column // older columns; a later node of the same name is shadowed
}

// Column is one visible (unshadowed) column of a row.
type Column struct {
	Name string
	Val  query.Value
}

// NewRow wraps a blob with no materialized columns.
func NewRow(b blob.Blob) Row { return Row{Blob: b} }

// Lookup implements the predicate binding over the row's columns.
func (r Row) Lookup(col string) (query.Value, bool) {
	for c := r.cols; c != nil; c = c.next {
		if c.name == col {
			return c.val, true
		}
	}
	return query.Value{}, false
}

// With returns the row with one additional column, which shadows any earlier
// column of the same name; the original is not modified (operators may hold
// references to earlier rows).
func (r Row) With(col string, v query.Value) Row {
	return Row{Blob: r.Blob, cols: &column{name: col, val: v, next: r.cols}}
}

// Get returns a column value or an error naming the missing column.
func (r Row) Get(col string) (query.Value, error) {
	v, ok := r.Lookup(col)
	if !ok {
		return query.Value{}, fmt.Errorf("engine: row has no column %q", col)
	}
	return v, nil
}

// Columns returns the row's visible columns sorted by name, so two rows
// holding the same values list identically however they were built. It is
// the one way to iterate a row; it allocates, and no per-row hot path calls
// it.
func (r Row) Columns() []Column {
	var out []Column
walk:
	for c := r.cols; c != nil; c = c.next {
		for _, seen := range out {
			if seen.Name == c.name {
				continue walk // shadowed by a newer column
			}
		}
		out = append(out, Column{Name: c.name, Val: c.val})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Processor is the row-manipulator UDF template of §4: it produces zero or
// more output rows per input row, a Batch of input rows per call. Data
// ingestion and per-blob ML operations (detectors, feature extractors,
// classifiers) are processors. Processors run under Config.Workers > 1 must
// be safe for concurrent Apply calls on disjoint batches.
type Processor interface {
	// Name identifies the UDF in plans and stats.
	Name() string
	// Cost is the virtual per-input-row execution cost.
	Cost() float64
	// Apply runs the processor over b's rows in order. A processor that
	// adds columns fills the vectors b.Column returns, one value per row; one
	// that changes cardinality says, through b.Repeat, how many output rows
	// an input row yields; a pass-through does nothing. A failure ends the
	// call: the processor returns a *RowError naming the failing row and
	// must not have applied any row after it. The engine keeps the rows
	// before it, charges them, re-drives that row alone under Config.Retry
	// and goes on after it in a new call (an error that is not a *RowError
	// blames the batch's first row, and keeps none of its work).
	Apply(b Batch) error
}

// RowError blames one input row of a batch for a processor failure.
type RowError struct {
	// Index is the failing row's position in the Batch Apply received.
	Index int
	// Err is the row's failure.
	Err error
}

// Error implements error; the text is the row's failure.
func (e *RowError) Error() string { return e.Err.Error() }

// Unwrap exposes the row's failure to errors.Is/As.
func (e *RowError) Unwrap() error { return e.Err }

// Reducer is the grouped-operation UDF template of §4 (e.g. object tracking
// over an ordered group of frames). On the plan it translates to a
// partition-shuffle-aggregate, which is a stage barrier.
type Reducer interface {
	Name() string
	// Cost is the virtual per-input-row cost.
	Cost() float64
	// Key extracts the grouping key.
	Key(r Row) (string, error)
	// Reduce transforms one group.
	Reduce(key string, rows []Row) ([]Row, error)
}

// Combiner is the custom-join UDF template of §4: an operation over two
// groups of related rows, like a join implementation.
type Combiner interface {
	Name() string
	// Cost is the virtual cost per pair of input rows considered.
	Cost() float64
	// Combine joins two co-keyed groups.
	Combine(key string, left, right []Row) ([]Row, error)
}
