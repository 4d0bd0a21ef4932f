package engine

import (
	"math"

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

// vector returns the newest column of name col the stage added.
func (m *morsel) vector(col string) ([]query.Value, bool) {
	for k := len(m.cols) - 1; k >= 0; k-- {
		if m.cols[k].name == col {
			return m.cols[k].vals, true
		}
	}
	return nil, false
}

func (m *morsel) lookup(i int, col string) (query.Value, bool) {
	if vals, ok := m.vector(col); ok {
		return vals[i], true
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
// is nil — in order. A row's column nodes are its base columns, then the
// stage's in the order they were added, so a newer column shadows an older
// one of its name. A row reuses a node of the same column, value and tail
// that this worker made earlier in the run (nodes never change once made, so
// no reader can tell two rows share one); the nodes the morsel still has to
// make come from one allocation. To size it, a first pass looks each row's
// nodes up in the column's node cache, numbering the nodes still to be made;
// the second makes them.
func (m *morsel) emit(out []Row, idx []int32) []Row {
	n := len(m.pos)
	if idx != nil {
		n = len(idx)
	}
	at := func(r int) int {
		if idx != nil {
			return int(idx[r])
		}
		return r
	}
	k := len(m.cols)
	if k == 0 {
		for r := range n {
			out = append(out, m.base(at(r)))
		}
		return out
	}
	w := m.w
	caches := w.nodeCaches(m.cols)
	// made is the nodes the caches held before this morsel: the first pass
	// may replace an entry after a row shared its node.
	made := w.made[:0]
	for j := range caches {
		for s := range caches[j].ent {
			made = append(made, caches[j].ent[s].node.p)
		}
	}
	w.made = made
	if cap(w.steps) < n*k {
		w.steps = make([]int32, n*k)
	}
	// steps holds, per row and column, the number of the morsel's node the
	// row holds there, or -1 - its index in made.
	steps := w.steps[:n*k]
	fresh := int32(0)
	for r := range n {
		i := at(r)
		var tail nodeRef
		if m.rows != nil {
			tail.p = m.rows[m.pos[i]].cols
		}
		j := 0
		for ; j < k && caches[j].misses < unsharedAfter; j++ {
			c, v := &caches[j], &m.cols[j].vals[i]
			s := int(c.last) // rows of one value come in runs
			if c.used == 0 || !c.ent[s].holds(v, tail) {
				s = c.find(v, tail)
			}
			if s < 0 {
				fresh++
				s = c.add(v, tail, nodeRef{k: fresh})
				c.misses++
			} else {
				c.misses = 0
			}
			tail = c.ent[s].node
			steps[r*k+j] = tail.k
			if tail.k == 0 {
				steps[r*k+j] = int32(-1 - j*nodeCacheSize - s)
			}
		}
		// A node over a tail no cache holds is this row's alone.
		for ; j < k; j++ {
			fresh++
			steps[r*k+j] = fresh
		}
	}
	var nodes []column
	if fresh > 0 {
		nodes = make([]column, fresh)
	}
	next := int32(0)
	for r := range n {
		i := at(r)
		row := m.base(i)
		for j := range caches {
			switch s := steps[r*k+j]; {
			case s < 0:
				row.cols = made[-1-s]
			case s > next:
				nd := &nodes[next]
				next++
				nd.name, nd.val, nd.next = m.cols[j].name, m.cols[j].vals[i], row.cols
				row.cols = nd
			default:
				row.cols = &nodes[s-1]
			}
		}
		out = append(out, row)
	}
	for j := range caches {
		for s := range caches[j].ent {
			e := &caches[j].ent[s]
			e.tail.resolve(nodes)
			e.node.resolve(nodes)
		}
	}
	clear(made)
	return out
}

// nodeCacheSize is how many of a stage column's most recently made nodes its
// cache holds.
const nodeCacheSize = 8

// unsharedAfter is how many consecutive lookups a column's node cache may
// miss before emit stops looking in it, and in the later columns' caches, for
// the rest of the run: a column of distinct values (a score, a speed) shares
// nothing, and then costs a node per row as it did before the caches.
const unsharedAfter = 4 * nodeCacheSize

// nodeCache is one stage column's most recently made nodes, for emit to share
// between rows.
type nodeCache struct {
	name string
	ent  [nodeCacheSize]cachedNode
	// used is the entries filled, next the entry the next node replaces, last
	// the entry the last lookup found or filled, which emit tries first.
	used, next, last uint8
	misses           int // lookups missed since the last hit
}

// cachedNode is one node of a column's cache: its value, the node it points
// to and itself.
type cachedNode struct {
	val        query.Value
	tail, node nodeRef
}

// nodeRef is a column node: one made (p), or during emit's first pass the
// k-th node the morsel still has to make (k > 0).
type nodeRef struct {
	p *column
	k int32
}

// resolve makes a reference to the morsel's k-th node, once made, a pointer.
func (r *nodeRef) resolve(nodes []column) {
	if r.k > 0 {
		*r = nodeRef{p: &nodes[r.k-1]}
	}
}

// nodeCaches returns the worker's node caches for the stage columns cols,
// emptying one that last held another column's nodes.
func (w *rowWorker) nodeCaches(cols []vec) []nodeCache {
	for len(w.nodes) < len(cols) {
		w.nodes = append(w.nodes, nodeCache{})
	}
	caches := w.nodes[:len(cols)]
	for j := range caches {
		if caches[j].name != cols[j].name {
			caches[j] = nodeCache{name: cols[j].name}
		}
	}
	return caches
}

// find returns the entry holding a node of value v over tail, or -1.
func (c *nodeCache) find(v *query.Value, tail nodeRef) int {
	for s := range int(c.used) {
		if c.ent[s].holds(v, tail) {
			c.last = uint8(s)
			return s
		}
	}
	return -1
}

// holds reports whether e is a node of value v over tail. Values are equal
// bit for bit, so -0 and +0, or two NaN payloads, never share.
func (e *cachedNode) holds(v *query.Value, tail nodeRef) bool {
	return math.Float64bits(e.val.Num) == math.Float64bits(v.Num) && e.tail == tail &&
		e.val.IsNum == v.IsNum && e.val.Str == v.Str
}

// add puts node, of value v over tail, in place of the cache's oldest entry
// and returns its entry.
func (c *nodeCache) add(v *query.Value, tail, node nodeRef) int {
	s := int(c.next)
	c.ent[s] = cachedNode{val: *v, tail: tail, node: node}
	c.last, c.next = c.next, uint8((s+1)%nodeCacheSize)
	if c.used < nodeCacheSize {
		c.used++
	}
	return s
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
