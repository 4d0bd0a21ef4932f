package engine

import (
	"probpred/internal/blob"
	"probpred/internal/query"
)

// Batch is what a Processor is applied to: a run of rows of one row-stage
// morsel (rowstage.go). Row i is a base row — a source blob, or a row that
// reached the stage whole — plus the columns the stage's processors added so
// far, held as one value vector per column rather than as nodes on the row;
// the stage makes Rows only for what it emits. A Batch is valid only during
// the call it was passed to.
type Batch struct {
	m      *morsel
	lo, hi int
}

// Len is the number of rows in the batch.
func (b Batch) Len() int { return b.hi - b.lo }

// Blob returns row i's blob.
func (b Batch) Blob(i int) blob.Blob { return *b.m.blob(b.lo + i) }

// Lookup returns row i's value of col: the newest column of that name the
// stage added, else the base row's.
func (b Batch) Lookup(i int, col string) (query.Value, bool) { return b.m.lookup(b.lo+i, col) }

// Slice returns rows [lo, hi) of the batch as a batch of their own, sharing
// its outputs: a wrapper runs the rows it lets through by passing on a slice.
func (b Batch) Slice(lo, hi int) Batch {
	if lo < 0 || lo > hi || hi > b.Len() {
		panic("engine: Batch.Slice out of range")
	}
	return Batch{m: b.m, lo: b.lo + lo, hi: b.lo + hi}
}

// Column adds the column name to every row of the batch and returns its
// values, one per row, for the processor to fill in row order. Called again
// by the same processor, on this batch or on another call's over the same
// morsel, it returns the same column.
func (b Batch) Column(name string) []query.Value {
	m := b.m
	for k := m.own; k < len(m.cols); k++ {
		if m.cols[k].name == name {
			return m.cols[k].vals[b.lo:b.hi:b.hi]
		}
	}
	m.cols = append(m.cols, vec{name: name, vals: m.w.takeVec(len(m.pos))})
	return m.cols[len(m.cols)-1].vals[b.lo:b.hi:b.hi]
}

// Repeat makes row i yield n output rows, each carrying the row's columns:
// zero drops it, two duplicate it. A row no call repeats yields one. The
// engine turns the counts into positions once the processor has run over the
// whole morsel.
func (b Batch) Repeat(i, n int) {
	if n < 0 || i < 0 || i >= b.Len() {
		panic("engine: Batch.Repeat out of range")
	}
	b.m.counts()[b.lo+i] = int32(n)
}

// morsel is the row stage's unit of work: up to morselRows rows, each a
// position in the base — the source's blobs, or rows (the upstream rows after
// a stage boundary, or a Project's output) — plus the columns the stage's
// processors added, one value vector per column. It belongs to one rowWorker
// and is reused morsel after morsel.
type morsel struct {
	w     *rowWorker
	blobs []blob.Blob // the base, when rows is nil
	rows  []Row
	pos   []int32
	// cols are the columns added since the base, oldest first; each vector
	// has one value per position.
	cols []vec
	// own is where the running processor's columns start in cols; reps are
	// its per-row output counts, nil until it calls Repeat.
	own  int
	reps []int32
	// buf is which of the worker's row buffers is the base, or -1.
	buf int
}

// vec is one column the stage added: its name and one value per row.
type vec struct {
	name string
	vals []query.Value
}

func (m *morsel) len() int { return len(m.pos) }

// reset makes survivors [lo, hi) of src the morsel, with no columns added.
func (m *morsel) reset(src rowInput, lo, hi int) {
	m.w.giveCols(m)
	m.blobs, m.rows, m.reps, m.buf = src.blobs, src.rows, nil, -1
	m.pos = m.w.intBuf(&m.w.pos, hi-lo)
	if src.filtered {
		copy(m.pos, src.sel[lo:hi])
		return
	}
	for i := range m.pos {
		m.pos[i] = int32(lo + i)
	}
}

// counts returns the running processor's per-row output counts, every row
// yielding one until it says otherwise.
func (m *morsel) counts() []int32 {
	if m.reps == nil {
		m.reps = m.w.intBuf(&m.w.reps, len(m.pos))
		for k := range m.reps {
			m.reps[k] = 1
		}
	}
	return m.reps
}

// base returns row i's base row.
func (m *morsel) base(i int) Row {
	if m.rows != nil {
		return m.rows[m.pos[i]]
	}
	return Row{Blob: m.blobs[m.pos[i]]}
}

// blob returns row i's blob.
func (m *morsel) blob(i int) *blob.Blob {
	if m.rows != nil {
		return &m.rows[m.pos[i]].Blob
	}
	return &m.blobs[m.pos[i]]
}

func (m *morsel) lookup(i int, col string) (query.Value, bool) {
	for k := len(m.cols) - 1; k >= 0; k-- {
		if m.cols[k].name == col {
			return m.cols[k].vals[i], true
		}
	}
	if m.rows != nil {
		return m.rows[m.pos[i]].Lookup(col)
	}
	return query.Value{}, false
}

// row makes row i, one node per added column.
func (m *morsel) row(i int) Row {
	r := m.base(i)
	for _, c := range m.cols {
		r = r.With(c.name, c.vals[i])
	}
	return r
}

// rebase makes rows, one per position, the morsel's base.
func (m *morsel) rebase(rows []Row) {
	m.w.giveCols(m)
	m.blobs, m.rows = nil, rows
	m.pos = m.w.intBuf(&m.w.pos, len(rows))
	for i := range m.pos {
		m.pos[i] = int32(i)
	}
}

// keep narrows the morsel, in place, to its rows idx: increasing positions.
func (m *morsel) keep(idx []int32) {
	for k, i := range idx {
		m.pos[k] = m.pos[i]
	}
	m.pos = m.pos[:len(idx)]
	for c := range m.cols {
		v := m.cols[c].vals
		for k, i := range idx {
			v[k] = v[i]
		}
		m.cols[c].vals = v[:len(idx)]
	}
}

// settleReps applies the counts the processor that just ran gave through
// Repeat, and makes every column the morsel holds an earlier processor's.
func (m *morsel) settleReps() {
	defer func() { m.reps, m.own = nil, len(m.cols) }()
	if m.reps == nil {
		return
	}
	w := m.w
	total, grows := 0, false
	for _, n := range m.reps {
		total += int(n)
		grows = grows || n > 1
	}
	idx := w.intBuf(&w.idx, total)[:0]
	for i, n := range m.reps {
		for range n {
			idx = append(idx, int32(i))
		}
	}
	if !grows {
		m.keep(idx)
		return
	}
	// Copies outnumber the rows they come from: gather into fresh vectors.
	pos := make([]int32, total)
	for k, i := range idx {
		pos[k] = m.pos[i]
	}
	w.pos, m.pos = pos, pos
	for c := range m.cols {
		old := m.cols[c].vals
		v := w.takeVec(total)
		for k, i := range idx {
			v[k] = old[i]
		}
		m.cols[c].vals = v
		w.giveVec(old)
	}
}

// emit appends to out the Rows of the morsel's rows idx — every row when idx
// is nil — in order. Their column nodes come from one allocation: each row's
// base columns, then the stage's in the order they were added, so a newer
// column shadows an older one of its name.
func (m *morsel) emit(out []Row, idx []int32) []Row {
	n := len(m.pos)
	if idx != nil {
		n = len(idx)
	}
	k := len(m.cols)
	var nodes []column
	if k > 0 {
		nodes = make([]column, n*k)
	}
	for r := range n {
		i := r
		if idx != nil {
			i = int(idx[r])
		}
		row := m.base(i)
		for j := range m.cols {
			nd := &nodes[r*k+j]
			nd.name, nd.val, nd.next = m.cols[j].name, m.cols[j].vals[i], row.cols
			row.cols = nd
		}
		out = append(out, row)
	}
	return out
}

// ApplyRows applies p to rows as one batch, outside any plan: one call, no
// retry. It returns the rows p made from the rows before any failure, the
// virtual durations a TimedProcessor reported, and p's error as p returned
// it.
func ApplyRows(p Processor, rows []Row) ([]Row, []float64, error) {
	w := getRowWorker(0)
	defer putRowWorker(w)
	m := &w.m
	m.reset(rowInput{rows: rows}, 0, len(rows))
	b := Batch{m: m, hi: len(rows)}
	var elapsed []float64
	var err error
	kept := len(rows)
	if tp, ok := p.(TimedProcessor); ok {
		elapsed, err = tp.ApplyTimed(b, nil)
		kept = len(elapsed)
		if err != nil {
			kept--
		}
	} else if err = p.Apply(b); err != nil {
		kept = 0
		if re := rowError(err); re != nil && re.Index >= 0 && re.Index < len(rows) {
			kept = re.Index
		}
	}
	clear(m.counts()[max(0, min(kept, len(rows))):])
	m.settleReps()
	return m.emit(nil, nil), elapsed, err
}
