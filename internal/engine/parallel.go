package engine

import (
	"fmt"
	"sync"
	"time"

	"probpred/internal/obs"
)

// Parallel execution: the virtual cost model already charges work as if it
// ran on a cluster, but the simulator itself can also use real goroutines
// for the row-parallel operators (Process, PPFilter) so that large streams
// execute quickly on multi-core machines. Parallelism never changes
// results, costs or row order — inputs are chunked, chunks run
// concurrently, and outputs are concatenated in chunk order.
//
// Processors run under Workers > 1 must be safe for concurrent Apply calls
// (the built-in UDFs are; see udf package notes).

// rowParallel is a row-local operator the engine may split across worker
// goroutines: chunk processes a contiguous slice of the input on its own and
// returns its output rows and the virtual cost incurred, which on failure is
// the cost of the work performed up to and including the failing row. rt is
// the chunk's own retry tally; ct is shared by every chunk of the run.
type rowParallel interface {
	Operator
	chunk(in []Row, cfg Config, rt *retryTally, ct *CacheTally) ([]Row, float64, error)
}

// runOp executes one operator over in and returns its output and virtual
// cost, accumulating its retry and score-cache tallies into acc. A
// row-parallel operator runs as N chunks:
// up to cfg.Workers of them on goroutines when the input has at least two
// rows per worker, each emitting a chunk span under acc.span; otherwise one
// chunk, inline, with no chunk span. Per-chunk virtual costs are summed in
// chunk order, so accounting is deterministic for a given
// worker count; when a chunk fails, the work every chunk performed up to that point
// — completed chunks, the failing chunk's rows before the failure, and all
// retry attempts — is still returned. The tallies live on the run's
// accumulator because PPFilter instances (and the compiled filters behind
// them) may be shared by concurrent runs: per-run accounting must never live
// on the operator itself.
func runOp(op Operator, in []Row, cfg Config, acc *opAcc) ([]Row, float64, error) {
	rp, ok := op.(rowParallel)
	if !ok {
		return op.Exec(in)
	}
	workers := cfg.Workers
	if workers <= 1 || len(in) < 2*workers {
		return rp.chunk(in, cfg, &acc.tally, &acc.ctally)
	}
	bounds := chunkBounds(len(in), (len(in)+workers-1)/workers)
	results := make([][]Row, len(bounds))
	costs := make([]float64, len(bounds))
	errs := make([]error, len(bounds))
	tallies := make([]retryTally, len(bounds))
	ct := newChunkTrace(cfg.Obs, &acc.span, len(bounds))
	var wg sync.WaitGroup
	for ci, b := range bounds {
		wg.Add(1)
		go func(ci int, lo, hi int) {
			defer wg.Done()
			ct.begin(ci)
			defer ct.end(ci)
			results[ci], costs[ci], errs[ci] = rp.chunk(in[lo:hi], cfg, &tallies[ci], &acc.ctally)
		}(ci, b[0], b[1])
	}
	wg.Wait()
	total := 0.0
	n := 0
	for ci := range bounds {
		total += costs[ci]
		n += len(results[ci])
		acc.tally.add(tallies[ci])
	}
	ct.emit(op.Name(), bounds, costs, results, errs)
	for _, err := range errs {
		if err != nil {
			return nil, total, err
		}
	}
	out := make([]Row, 0, n)
	for _, r := range results {
		out = append(out, r...)
	}
	return out, total, nil
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
func (ct *chunkTrace) emit(opName string, bounds [][2]int, costs []float64, results [][]Row, errs []error) {
	if ct == nil {
		return
	}
	for ci, b := range bounds {
		sp := ct.tr.BeginChild(ct.parent, obs.KindChunk, fmt.Sprintf("%s[%d:%d]", opName, b[0], b[1]))
		sp.Start = ct.starts[ci]
		sp.WallNS = ct.walls[ci]
		sp.CostVMS = costs[ci]
		sp.RowsIn = b[1] - b[0]
		sp.RowsOut = len(results[ci])
		if errs[ci] != nil {
			sp.SetAttr("error", errs[ci].Error())
		}
		ct.tr.EmitSpan(sp)
	}
}
