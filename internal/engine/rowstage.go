package engine

import (
	"slices"
	"sync"
	"time"

	"probpred/internal/blob"
	"probpred/internal/query"
)

// The row stage: the row-local operators after the source stage (Process,
// Select, Project), and after each stage boundary, run one morsel at a time,
// in the style of MonetDB/X100's cache-resident vectors and morsel-driven
// parallelism (Leis et al., SIGMOD 2014). A morsel
// is columns before rows (batch.go): int32 positions into the stage's base —
// the source's blobs, or the upstream rows — plus one pooled value vector per
// column the stage's processors add. A processor fills its columns' vectors
// or says how many rows each input yields; Select walks its predicate a
// clause at a time over bitmaps of the morsel's rows, reading the vectors and
// the base, and compacts positions and vectors in place. Rows are made once,
// at the stage's end, only for the rows it emits, straight into the output
// slab sized by the survivor count, and an emitted row shares each column
// node with an earlier row holding the same column value over the same tail;
// a Project, which needs Rows, makes its input's and its own output becomes
// the morsel's base.
//
// The ledger keeps every bit. A Process threads its running cost sum from
// morsel to morsel, row by row, so its total is the same sequence of
// additions as one pass over the whole input; Select and Project are charged
// once, from their row counts; each position is charged once per row stage.
// With Workers > 1 the stage's input is split once into worker ranges
// (chunkBounds), each running the morsel loop on its own goroutine and
// buffers; a position's cost is its ranges' sums added in range order.
// Making the emitted rows is timed on the stage's last position (on the
// source stage's last when the stage has no operator).
//
// A failure stops its worker at the failing morsel; operators after the
// failing one keep the charge for the morsels they already ran, and the run
// reports the first failure in morsel order — the lowest range's.

// morselRows is how many survivors one morsel carries into the row stage:
// its positions (4 KB) and a few 32 KB value vectors stay within a core's L2.
const morselRows = 1024

// pooledVecs is how many value vectors a pooled worker keeps: enough for the
// columns of every plan builder's row stage. It also bounds the stage columns
// whose node caches and emission scratch a pooled worker keeps.
const pooledVecs = 8

// pooledWords is the most bitmap words a pooled worker keeps for Select's
// walk: sixteen bitmaps of a morsel.
const pooledWords = 16 * morselRows / 64

// rowLocal reports whether op is a row-stage operator. Run runs each maximal
// run of them after the source stage as one row stage.
func rowLocal(op Operator) bool {
	switch op.(type) {
	case *Process, *Select, *Project:
		return true
	}
	return false
}

// rowInput is what the row stage consumes: the source stage's survivors —
// every blob, or with filtered the blobs sel selects — or upstream rows, made
// by a source other than a Scan or by a stage boundary.
type rowInput struct {
	scan, filtered bool
	blobs          []blob.Blob
	sel            []int32
	rows           []Row
}

func (in rowInput) len() int {
	switch {
	case !in.scan:
		return len(in.rows)
	case in.filtered:
		return len(in.sel)
	}
	return len(in.blobs)
}

// opRun is one row-stage position's work over one worker range.
type opRun struct {
	ran     bool
	in, out int
	// cost is a Process's running sum, threaded row by row across the
	// range's morsels.
	cost   float64
	wallNS int64
	tally  retryTally
	// elapsed is a TimedProcessor's per-row durations, reused per call.
	elapsed []float64
	err     error
}

// rowWorker runs the morsel loop over one worker range. It is pooled: its
// morsel's buffers — positions, value vectors, the keep list, the repeat
// counts, a Project's two row buffers, Select's bitmaps, emit's node caches
// and scratch — and its predicate lookup outlive the run, and are cleared
// when it goes back.
type rowWorker struct {
	m morsel
	// free holds the value vectors the morsel is not using.
	free           [][]query.Value
	pos, idx, reps []int32
	rowBufs        [2][]Row
	// high is the most rows any buffer was written to since the worker left
	// the pool: only that prefix of a buffer holds references to clear.
	high int
	// words is a stack of bitmaps for Select's walk, top words in use.
	words []uint64
	top   int
	// nodes is one cache per stage column of the nodes this run's emitted
	// rows hold; made and steps are emit's scratch (batch.go).
	nodes []nodeCache
	made  []*column
	steps []int32
	// look is the row-at-a-time lookup a Select falls back to.
	look *rowLookup
	runs []opRun
	// failed is the position (in the stage's operators) whose error stopped
	// the worker, or -1.
	failed int
	start  time.Time
	emitNS int64 // time spent making rows for a stage with no operator
	out    []Row
}

var rowWorkerPool sync.Pool

func getRowWorker(ops int) *rowWorker {
	w, ok := rowWorkerPool.Get().(*rowWorker)
	if !ok {
		w = &rowWorker{look: newRowLookup()}
		w.m.w = w
	}
	w.runs = slices.Grow(w.runs[:0], ops)[:ops]
	w.failed = -1
	return w
}

// putRowWorker clears what the worker's run left behind — references in the
// vectors, row buffers and node caches, the run tallies — and pools it. A
// buffer a morsel grew past morselRows (a processor emitting several rows per
// input) is dropped, and so is a vector past pooledVecs, so the pool pins at
// most pooledVecs value vectors, two row buffers and three position buffers
// of morselRows each per worker, plus pooledWords bitmap words and, for
// pooledVecs stage columns, an empty node cache and four bytes of emit's
// steps per morsel row each.
func putRowWorker(w *rowWorker) {
	m := &w.m
	w.giveCols(m)
	m.blobs, m.rows, m.pos, m.reps = nil, nil, nil, nil
	kept := w.free[:0]
	for _, v := range w.free {
		if cap(v) <= morselRows && len(kept) < pooledVecs {
			clear(v[:min(w.high, cap(v))])
			kept = append(kept, v)
		}
	}
	clear(w.free[len(kept):])
	w.free = kept
	for k, b := range w.rowBufs {
		if cap(b) > morselRows {
			w.rowBufs[k] = nil
		} else {
			clear(b[:min(w.high, cap(b))])
		}
	}
	for _, p := range []*[]int32{&w.pos, &w.idx, &w.reps} {
		if cap(*p) > morselRows {
			*p = nil
		}
	}
	w.high = 0
	if cap(w.words) > pooledWords {
		w.words = nil
	}
	if cap(w.nodes) > pooledVecs {
		w.nodes, w.made = nil, nil
	}
	clear(w.nodes[:cap(w.nodes)])
	w.nodes = w.nodes[:0]
	if cap(w.steps) > pooledVecs*morselRows {
		w.steps = nil
	}
	clear(w.runs)
	w.look.m = nil
	w.emitNS, w.out = 0, nil
	rowWorkerPool.Put(w)
}

// takeVec returns a value vector of n rows, its contents unspecified.
func (w *rowWorker) takeVec(n int) []query.Value {
	w.high = max(w.high, n)
	if k := len(w.free); k > 0 && cap(w.free[k-1]) >= n {
		v := w.free[k-1]
		w.free[k-1] = nil
		w.free = w.free[:k-1]
		return v[:n]
	}
	return make([]query.Value, n, max(n, morselRows))
}

// giveVec takes a vector back.
func (w *rowWorker) giveVec(v []query.Value) { w.free = append(w.free, v[:0]) }

// giveCols takes back the vectors of every column the morsel holds.
func (w *rowWorker) giveCols(m *morsel) {
	for _, c := range m.cols {
		w.giveVec(c.vals)
	}
	clear(m.cols)
	m.cols, m.own = m.cols[:0], 0
}

// intBuf returns *p at length n, grown when it is short.
func (w *rowWorker) intBuf(p *[]int32, n int) []int32 {
	if cap(*p) < n {
		*p = make([]int32, n, max(n, morselRows))
	}
	return (*p)[:n]
}

// bitmap takes nw words off the bitmap stack, contents unspecified; the
// taker gives them back by restoring top. A stack that runs out moves to a
// larger array, and the bitmaps already taken keep the old one.
func (w *rowWorker) bitmap(nw int) []uint64 {
	if w.top+nw > len(w.words) {
		w.words = make([]uint64, 2*(w.top+nw))
	}
	b := w.words[w.top : w.top+nw : w.top+nw]
	w.top += nw
	return b
}

// rowBuf returns row buffer k empty, with room for n rows.
func (w *rowWorker) rowBuf(k, n int) []Row {
	w.high = max(w.high, n)
	if cap(w.rowBufs[k]) < n {
		w.rowBufs[k] = make([]Row, 0, max(n, morselRows))
	}
	return w.rowBufs[k][:0]
}

// run drives survivors [lo, hi) of src through ops a morsel at a time and
// appends the last operator's output to out. A range with no survivors is one
// empty morsel, so every operator still executes. The first failure stops the
// range: w.failed names its operator and that operator's opRun holds it.
func (w *rowWorker) run(ops []Operator, src rowInput, lo, hi int, cfg Config, out []Row) []Row {
	w.start = time.Now()
	for m := lo; ; m += morselRows {
		end := min(m+morselRows, hi)
		out = w.morsel(ops, src, m, end, cfg, out)
		if w.failed >= 0 || end >= hi {
			return out
		}
	}
}

// morsel runs survivors [lo, hi) of src through ops.
func (w *rowWorker) morsel(ops []Operator, src rowInput, lo, hi int, cfg Config, out []Row) []Row {
	m := &w.m
	m.reset(src, lo, hi)
	if len(ops) == 0 {
		start := time.Now()
		out = m.emit(out, nil)
		w.emitNS += time.Since(start).Nanoseconds()
		return out
	}
	for j, op := range ops {
		last := j == len(ops)-1
		or := &w.runs[j]
		in, mark := m.len(), len(out)
		start := time.Now()
		var err error
		out, err = w.step(op, last, out, or, cfg)
		or.wallNS += time.Since(start).Nanoseconds()
		or.ran = true
		or.in += in
		if err != nil {
			or.err, w.failed = err, j
			return out[:mark]
		}
		if last {
			or.out += len(out) - mark
		} else {
			or.out += m.len()
		}
	}
	return out
}

// step runs one operator over the morsel. The last operator appends the
// stage's output rows to out.
func (w *rowWorker) step(op Operator, last bool, out []Row, or *opRun, cfg Config) ([]Row, error) {
	m := &w.m
	switch o := op.(type) {
	case *Process:
		if err := apply(o.P, m, cfg.Retry, or); err != nil {
			return out, err
		}
		m.settleReps()
		if last {
			return m.emit(out, nil), nil
		}
		return out, nil
	case *Project:
		if last {
			return o.project(m, out)
		}
		k := 0
		if m.buf == 0 {
			k = 1 // buffer 0 is the base the projection reads
		}
		rows, err := o.project(m, w.rowBuf(k, m.len()))
		if err != nil {
			return out, err
		}
		m.rebase(rows)
		m.buf = k
		return out, nil
	case *Select:
		keep, err := o.filter(w, w.intBuf(&w.idx, m.len())[:0])
		if err != nil {
			return out, err
		}
		if last {
			return m.emit(out, keep), nil
		}
		m.keep(keep)
		return out, nil
	}
	panic("engine: " + op.Name() + " is not a row-stage operator")
}

// rowLookup is a predicate lookup bound to one morsel row at a time: one
// closure per worker, repointed per row, where binding each row's lookup
// would allocate a closure per row. Only a Select whose walk meets a failing
// row uses it (Select.filter).
type rowLookup struct {
	m  *morsel
	i  int
	fn query.Lookup
}

func newRowLookup() *rowLookup {
	l := &rowLookup{}
	l.fn = func(col string) (query.Value, bool) { return l.m.lookup(l.i, col) }
	return l
}

// rowStage runs ops[first:split] over src and appends their output to dst,
// then charges each position that ran (settle). The output region is grown
// once by the survivor count; the serial path's last operator appends into
// it, and each worker's into its own part of it, joined in range order.
func (r *run) rowStage(src rowInput, first, split int, dst []Row) ([]Row, error) {
	ops := r.ops[first:split]
	n := src.len()
	base := len(dst)
	dst = slices.Grow(dst, n)
	if !parallel(n, r.cfg.Workers) {
		w := getRowWorker(len(ops))
		dst = w.run(ops, src, 0, n, r.cfg, dst)
		ws := [1]*rowWorker{w}
		err := r.settle(first, ops, ws[:], nil)
		putRowWorker(w)
		return dst, err
	}
	bounds := chunkBounds(n, (n+r.cfg.Workers-1)/r.cfg.Workers)
	ws := make([]*rowWorker, len(bounds))
	var wg sync.WaitGroup
	for k, b := range bounds {
		w := getRowWorker(len(ops))
		ws[k] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			region := dst[base+b[0] : base+b[0] : base+b[1]]
			w.out = w.run(ops, src, b[0], b[1], r.cfg, region)
		}()
	}
	wg.Wait()
	// A range's output stays in its region unless it outgrew it (a processor
	// emitting several rows per input), when append moved it elsewhere.
	// Regions in place compact down in range order; an outgrown range would
	// overwrite the next region's rows first, so then the ranges are joined
	// apart and copied in.
	outgrown := false
	for k, w := range ws {
		outgrown = outgrown || len(w.out) > bounds[k][1]-bounds[k][0]
	}
	if outgrown {
		var joined []Row
		for _, w := range ws {
			joined = append(joined, w.out...)
		}
		dst = append(dst, joined...)
	} else {
		for _, w := range ws {
			dst = append(dst, w.out...)
		}
	}
	err := r.settle(first, ops, ws, bounds)
	for _, w := range ws {
		putRowWorker(w)
	}
	return dst, err
}

// settle charges each row-stage position that ran in any worker range — its
// cardinalities, wall time and retry tallies summed over the ranges, its cost
// as the ranges' running sums added in range order (Select and Project: its
// per-row cost times the rows it was handed) — and emits a chunk span per
// range for the positions whose cost is such a sum. Making rows is timed on
// the source stage's last position. It returns the first failure in range
// order, the run ended by it.
func (r *run) settle(first int, ops []Operator, ws []*rowWorker, bounds [][2]int) error {
	for _, w := range ws {
		r.accs[first-1].wallNS += w.emitNS
	}
	for j, op := range ops {
		var acc *opAcc
		in, out, cost, wallNS := 0, 0, 0.0, int64(0)
		for _, w := range ws {
			or := &w.runs[j]
			if !or.ran {
				continue
			}
			if acc == nil {
				acc = r.open(first + j)
			}
			if bounds != nil && threadsCost(op) && r.cfg.Obs.Enabled() {
				emitChunk(r.cfg.Obs, &acc.span, op.Name(), in, in+or.in, chunkRun{out: or.out, cost: or.cost, err: or.err}, w.start, or.wallNS)
			}
			in += or.in
			out += or.out
			cost += or.cost
			wallNS += or.wallNS
			acc.tally.add(or.tally)
		}
		if acc == nil {
			continue
		}
		r.charge(acc, in, out, positionCost(op, in, cost), wallNS)
	}
	for _, w := range ws {
		if w.failed >= 0 {
			return r.fail(first+w.failed, w.runs[w.failed].err)
		}
	}
	return nil
}

// threadsCost reports whether op's cost is a running sum over its rows (and
// so splits into worker chunk spans that add up to it): a Process's.
func threadsCost(op Operator) bool {
	_, ok := op.(*Process)
	return ok
}

// positionCost is a row-stage position's cost over in rows, given its
// running sum: the sum for a Process, per-row cost × rows handed
// to it for Select and Project.
func positionCost(op Operator, in int, sum float64) float64 {
	switch o := op.(type) {
	case *Select:
		return selectCost * float64(in)
	case *Project:
		return o.unitCost() * float64(in)
	}
	return sum
}

// execLocal is Exec of a row-local operator: a row stage of its own over in,
// a morsel at a time, with no retry policy and no workers.
func execLocal(op Operator, in []Row) ([]Row, float64, error) {
	w := getRowWorker(1)
	defer putRowWorker(w)
	out := w.run([]Operator{op}, rowInput{rows: in}, 0, len(in), Config{}, make([]Row, 0, len(in)))
	or := &w.runs[0]
	if or.err != nil {
		out = nil
	}
	return out, positionCost(op, or.in, or.cost), or.err
}
