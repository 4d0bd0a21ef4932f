package engine

import (
	"slices"
	"sync"
	"time"

	"probpred/internal/blob"
	"probpred/internal/query"
)

// The row stage: the row-local operators after the source stage (Process,
// Select, Project, a PPFilter over rows) run one morsel of survivors at a
// time, in the style of MonetDB/X100's cache-resident vectors and morsel-driven
// parallelism (Leis et al., SIGMOD 2014). A morsel's rows are made from the
// source stage's survivors into one of a worker's two recycled row buffers;
// each operator reads one buffer and writes the other, and the last writes
// straight into the output slab, sized by the survivor count. No operator
// allocates a slab of its own over the whole input.
//
// The ledger keeps every bit. A Process or PPFilter threads its running cost
// sum from morsel to morsel, row by row, so its total is the same sequence of
// additions as one pass over the whole input; Select and Project are charged
// once, from their row counts; each position is charged once per adaptive
// chunk. With Workers > 1 the stage's input is split once into worker ranges
// (chunkBounds), each running the morsel loop on its own goroutine and
// buffers; a position's cost is its ranges' sums added in range order.
//
// A failure stops its worker at the failing morsel; operators after the
// failing one keep the charge for the morsels they already ran, and the run
// reports the first failure in morsel order — the lowest range's.

// morselRows is how many survivors one morsel carries into the row stage:
// 1 024 rows of 56 bytes, two buffers per worker, stay within a core's L2.
const morselRows = 1024

// rowLocal reports whether op is a row-stage operator. The prefix RunAdaptive
// runs per adaptive chunk is the source plus the row-local operators after it.
func rowLocal(op Operator) bool {
	switch op.(type) {
	case *Process, *Select, *Project, *PPFilter:
		return true
	}
	return false
}

// rowInput is what the row stage consumes: the source stage's survivors —
// every blob, or with filtered the blobs sel selects — or the rows a source
// other than a Scan made.
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

// appendRows appends the rows of survivors [lo, hi) to out, making them from
// their blobs when the input came from a Scan.
func (in rowInput) appendRows(out []Row, lo, hi int) []Row {
	switch {
	case !in.scan:
		return append(out, in.rows[lo:hi]...)
	case in.filtered:
		for _, i := range in.sel[lo:hi] {
			out = append(out, Row{Blob: in.blobs[i]})
		}
		return out
	}
	for _, b := range in.blobs[lo:hi] {
		out = append(out, Row{Blob: b})
	}
	return out
}

// opRun is one row-stage position's work over one worker range.
type opRun struct {
	ran     bool
	in, out int
	// cost is a Process's or PPFilter's running sum, threaded row by row
	// across the range's morsels.
	cost   float64
	wallNS int64
	tally  retryTally
	// elapsed is a TimedProcessor's per-row durations, reused per call.
	elapsed []float64
	err     error
}

// rowWorker runs the morsel loop over one worker range. It is pooled: its
// two row buffers, its filter scratch and its predicate lookup outlive the
// run, and are cleared when it goes back.
type rowWorker struct {
	bufs  [2][]Row
	dirty [2]int // how much of each buffer holds references to clear
	fs    *filterScratch
	look  *rowLookup
	runs  []opRun
	// failed is the position (in the stage's operators) whose error stopped
	// the worker, or -1.
	failed int
	start  time.Time
	makeNS int64 // time spent making rows from blobs
	out    []Row
}

var rowWorkerPool sync.Pool

func getRowWorker(ops int) *rowWorker {
	w, ok := rowWorkerPool.Get().(*rowWorker)
	if !ok {
		w = &rowWorker{look: newRowLookup()}
	}
	w.runs = slices.Grow(w.runs[:0], ops)[:ops]
	w.failed = -1
	return w
}

// putRowWorker clears what the worker's run left behind — references in the
// buffers, the run tallies — and pools it. A buffer a morsel grew past
// morselRows (a processor emitting several rows per input) is dropped, so
// the pool pins at most 2 × morselRows rows per worker.
func putRowWorker(w *rowWorker) {
	for k := range w.bufs {
		clear(w.bufs[k][:w.dirty[k]])
		w.dirty[k] = 0
		if cap(w.bufs[k]) > morselRows {
			w.bufs[k] = nil
		}
	}
	if w.fs != nil {
		putFilterScratch(w.fs)
		w.fs = nil
	}
	clear(w.runs)
	w.look.cur = nil
	w.makeNS, w.out = 0, nil
	rowWorkerPool.Put(w)
}

// buf returns buffer k empty, with room for n rows.
func (w *rowWorker) buf(k, n int) []Row {
	if cap(w.bufs[k]) < n {
		w.bufs[k] = make([]Row, 0, n)
		w.dirty[k] = 0
	}
	return w.bufs[k][:0]
}

// keep records rows, just written into buffer k (or into a larger array
// append moved it to), as that buffer.
func (w *rowWorker) keep(k int, rows []Row) {
	w.bufs[k] = rows[:0]
	w.dirty[k] = max(w.dirty[k], len(rows))
}

// run drives survivors [lo, hi) of src through ops a morsel at a time and
// appends the last operator's output to out. A range with no survivors is one
// empty morsel, so every operator still executes. The first failure stops the
// range: w.failed names its operator and that operator's opRun holds it.
func (w *rowWorker) run(ops []Operator, src rowInput, lo, hi int, cfg Config, accs []opAcc, out []Row) []Row {
	w.start = time.Now()
	size := min(hi-lo, morselRows)
	for m := lo; ; m += morselRows {
		end := min(m+morselRows, hi)
		if len(ops) == 0 {
			start := time.Now()
			out = src.appendRows(out, m, end)
			w.makeNS += time.Since(start).Nanoseconds()
		} else {
			out = w.morsel(ops, src, m, end, size, cfg, accs, out)
			if w.failed >= 0 {
				return out
			}
		}
		if end >= hi {
			return out
		}
	}
}

// morsel runs survivors [m, end) through ops.
func (w *rowWorker) morsel(ops []Operator, src rowInput, m, end, size int, cfg Config, accs []opAcc, out []Row) []Row {
	var cur []Row
	k := 0 // the buffer the next operator writes
	if src.scan {
		start := time.Now()
		cur = src.appendRows(w.buf(0, size), m, end)
		w.makeNS += time.Since(start).Nanoseconds()
		w.keep(0, cur)
		k = 1
	} else {
		cur = src.rows[m:end]
	}
	for j, op := range ops {
		last := j == len(ops)-1
		next := out
		if !last {
			next = w.buf(k, size)
		}
		or := &w.runs[j]
		start := time.Now()
		res, err := w.step(op, cur, next, or, cfg, &accs[j].ctally)
		or.wallNS += time.Since(start).Nanoseconds()
		or.ran = true
		or.in += len(cur)
		if err != nil {
			or.err, w.failed = err, j
			return out
		}
		if last {
			or.out += len(res) - len(out)
			return res
		}
		or.out += len(res)
		w.keep(k, res)
		cur, k = res, k^1
	}
	return out
}

// step runs one operator over one morsel, appending its output to out.
func (w *rowWorker) step(op Operator, in, out []Row, or *opRun, cfg Config, ct *CacheTally) ([]Row, error) {
	switch o := op.(type) {
	case *Process:
		return apply(o.P, in, out, cfg.Retry, or)
	case *Select:
		return o.filter(in, out, w.look)
	case *Project:
		return o.project(in, out)
	case *PPFilter:
		if w.fs == nil {
			w.fs = getFilterScratch(len(in))
		}
		return o.filterRows(in, out, w.fs, &or.cost, ct), nil
	}
	panic("engine: " + op.Name() + " is not a row-stage operator")
}

// rowLookup is a predicate lookup bound to one row at a time: one closure per
// binding, repointed per row, where binding each row's Lookup method would
// allocate a method value per row.
type rowLookup struct {
	cur *Row
	fn  query.Lookup
}

func newRowLookup() *rowLookup {
	l := &rowLookup{}
	l.fn = func(col string) (query.Value, bool) { return l.cur.Lookup(col) }
	return l
}

// rowStage runs ops[first:split] over src and appends their output to dst,
// then charges each position that ran (settle). The output region is grown
// once by the survivor count; the serial path's last operator appends into
// it, and each worker's into its own part of it, joined in range order.
func (r *run) rowStage(src rowInput, first, split int, dst []Row) ([]Row, error) {
	ops := r.ops[first:split]
	accs := r.accs[first:split]
	n := src.len()
	base := len(dst)
	dst = slices.Grow(dst, n)
	if !parallel(n, r.cfg.Workers) {
		w := getRowWorker(len(ops))
		dst = w.run(ops, src, 0, n, r.cfg, accs, dst)
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
			w.out = w.run(ops, src, b[0], b[1], r.cfg, accs, region)
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
		r.accs[first-1].wallNS += w.makeNS
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
		switch o := op.(type) {
		case *Select:
			cost = selectCost * float64(in)
		case *Project:
			cost = o.unitCost() * float64(in)
		}
		r.charge(acc, in, out, cost, wallNS)
	}
	for _, w := range ws {
		if w.failed >= 0 {
			return r.fail(first+w.failed, w.runs[w.failed].err)
		}
	}
	return nil
}

// threadsCost reports whether op's cost is a running sum over its rows (and
// so splits into worker chunk spans that add up to it).
func threadsCost(op Operator) bool {
	switch op.(type) {
	case *Process, *PPFilter:
		return true
	}
	return false
}
