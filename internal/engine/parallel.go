package engine

import (
	"fmt"
	"sync"
	"time"

	"probpred/internal/obs"
)

// Parallel execution: the virtual cost model already charges work as if it
// ran on a cluster, but the simulator itself can also use real goroutines
// for the row-parallel work (each source PP filter's TestBatch, and the row
// stage, split once at its input: rowstage.go) so that large streams execute
// quickly on multi-core machines. Parallelism never changes results or row
// order, and costs are deterministic for a given worker count — inputs are
// chunked, chunks run concurrently, and outputs and costs are joined in chunk
// order.
//
// Processors run under Workers > 1 must be safe for concurrent Apply calls
// on disjoint batches (the built-in UDFs are; see udf package notes).

// parallel reports whether n input rows are split across worker goroutines:
// only with more than one worker and at least two rows per worker.
func parallel(n, workers int) bool { return workers > 1 && n >= 2*workers }

// chunkRun is one worker chunk's outcome, as its chunk span reports it: the
// rows it produced, the virtual cost it charged (on failure, the work
// performed up to and including the failing row) and its error.
type chunkRun struct {
	out  int
	cost float64
	err  error
}

// runChunks runs fn over the worker chunks of n input blobs — inline as one
// chunk when the input is not split (parallel), otherwise at most
// cfg.Workers chunks on goroutines, each with a chunk span named
// name[lo:hi] under parent — and returns their outputs summed and their
// costs summed in chunk order, so accounting is deterministic for a given
// worker count. A source filter's TestBatch runs through it.
func runChunks(cfg Config, parent *obs.Span, name string, n int, fn func(lo, hi int) chunkRun) chunkRun {
	if !parallel(n, cfg.Workers) {
		return fn(0, n)
	}
	bounds := chunkBounds(n, (n+cfg.Workers-1)/cfg.Workers)
	runs := make([]chunkRun, len(bounds))
	ct := newChunkTrace(cfg.Obs, parent, len(bounds))
	var wg sync.WaitGroup
	for ci, b := range bounds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ct.begin(ci)
			defer ct.end(ci)
			runs[ci] = fn(b[0], b[1])
		}()
	}
	wg.Wait()
	ct.emit(name, bounds, runs)
	var sum chunkRun
	for _, r := range runs {
		sum.out += r.out
		sum.cost += r.cost
	}
	return sum
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
		emitChunk(ct.tr, ct.parent, opName, b[0], b[1], runs[ci], ct.starts[ci], ct.walls[ci])
	}
}

// emitChunk sends one chunk span, name[lo:hi] under parent, for a chunk of
// rows lo … hi-1 of an operator's input that ran cr from start for wallNS.
func emitChunk(tr *obs.Tracer, parent *obs.Span, opName string, lo, hi int, cr chunkRun, start time.Time, wallNS int64) {
	if !tr.Enabled() {
		return
	}
	sp := tr.BeginChild(parent, obs.KindChunk, fmt.Sprintf("%s[%d:%d]", opName, lo, hi))
	sp.Start = start
	sp.WallNS = wallNS
	sp.CostVMS = cr.cost
	sp.RowsIn = hi - lo
	sp.RowsOut = cr.out
	if cr.err != nil {
		sp.SetAttr("error", cr.err.Error())
	}
	tr.EmitSpan(sp)
}
