package engine

import (
	"fmt"
	"sync"
	"time"

	"probpred/internal/obs"
)

// Parallel execution: the virtual cost model already charges work as if it
// ran on a cluster, but the simulator itself can also use real goroutines
// for the row-parallel work (Process, and each PP filter's TestBatch) so
// that large streams execute quickly on multi-core machines. Parallelism
// never changes results, costs or row order — inputs are chunked, chunks run
// concurrently, and outputs are concatenated in chunk order.
//
// Processors run under Workers > 1 must be safe for concurrent ApplyBatch
// calls on disjoint batches (the built-in UDFs are; see udf package notes).

// parallel reports whether n input rows are split across worker goroutines:
// only with more than one worker and at least two rows per worker.
func parallel(n, workers int) bool { return workers > 1 && n >= 2*workers }

// chunkRun is one worker chunk's outcome: the rows it produced, the virtual
// cost it charged (on failure, the work performed up to and including the
// failing row) and its error.
type chunkRun struct {
	out  int
	cost float64
	err  error
}

// runChunks runs fn over the worker chunks of n input rows — inline as one
// chunk when the input is not split (parallel), otherwise at most
// cfg.Workers chunks on goroutines, each with a chunk span named
// name[lo:hi] under parent — and returns their outputs summed, their costs
// summed in chunk order, and the first error in chunk order. Per-chunk costs
// are summed in chunk order, so accounting is deterministic for a given
// worker count; when a chunk fails, the work every chunk performed up to
// that point is still returned.
func runChunks(cfg Config, parent *obs.Span, name string, n int, fn func(ci, lo, hi int) chunkRun) chunkRun {
	if !parallel(n, cfg.Workers) {
		return fn(0, 0, n)
	}
	bounds := chunkBounds(n, (n+cfg.Workers-1)/cfg.Workers)
	runs := make([]chunkRun, len(bounds))
	ct := newChunkTrace(cfg.Obs, parent, len(bounds))
	var wg sync.WaitGroup
	for ci, b := range bounds {
		wg.Add(1)
		go func(ci int, lo, hi int) {
			defer wg.Done()
			ct.begin(ci)
			defer ct.end(ci)
			runs[ci] = fn(ci, lo, hi)
		}(ci, b[0], b[1])
	}
	wg.Wait()
	ct.emit(name, bounds, runs)
	var sum chunkRun
	for _, r := range runs {
		sum.out += r.out
		sum.cost += r.cost
		if sum.err == nil {
			sum.err = r.err
		}
	}
	return sum
}

// runOp executes one operator over rows and returns its output and virtual
// cost, a Process split across workers with its retry tally on acc. Tallies
// live on the run's accumulator, never on the operator: plans (and the
// compiled filters in them) are shared by concurrent runs.
func runOp(op Operator, in []Row, cfg Config, acc *opAcc) ([]Row, float64, error) {
	if p, ok := op.(*Process); ok {
		return p.run(in, cfg, acc)
	}
	return op.Exec(in)
}

// chunkTrace records one chunk's span timing from inside its goroutine;
// spans are emitted after the join, in chunk order, so sinks see a
// deterministic sequence. Slices are per-chunk indexed: no locking needed.
type chunkTrace struct {
	tr     *obs.Tracer
	parent *obs.Span
	starts []time.Time
	walls  []int64
}

func newChunkTrace(tr *obs.Tracer, parent *obs.Span, chunks int) *chunkTrace {
	if !tr.Enabled() {
		return nil
	}
	return &chunkTrace{tr: tr, parent: parent, starts: make([]time.Time, chunks), walls: make([]int64, chunks)}
}

func (ct *chunkTrace) begin(ci int) {
	if ct != nil {
		ct.starts[ci] = time.Now()
	}
}

func (ct *chunkTrace) end(ci int) {
	if ct != nil {
		ct.walls[ci] = time.Since(ct.starts[ci]).Nanoseconds()
	}
}

// emit sends the chunk spans in chunk order.
func (ct *chunkTrace) emit(opName string, bounds [][2]int, runs []chunkRun) {
	if ct == nil {
		return
	}
	for ci, b := range bounds {
		sp := ct.tr.BeginChild(ct.parent, obs.KindChunk, fmt.Sprintf("%s[%d:%d]", opName, b[0], b[1]))
		sp.Start = ct.starts[ci]
		sp.WallNS = ct.walls[ci]
		sp.CostVMS = runs[ci].cost
		sp.RowsIn = b[1] - b[0]
		sp.RowsOut = runs[ci].out
		if runs[ci].err != nil {
			sp.SetAttr("error", runs[ci].err.Error())
		}
		ct.tr.EmitSpan(sp)
	}
}
