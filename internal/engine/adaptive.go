package engine

import (
	"fmt"
	"strconv"
	"time"

	"probpred/internal/obs"
)

// Adaptive execution: chunk-boundary plan-swap points in the engine's one
// run loop. The row-local prefix of the plan (source, PP filters, processors,
// selects, projections — everything up to the first stage boundary) is
// executed chunk by chunk, and after each chunk a SwapDecider may replace
// the plan's PP filter for the remaining chunks; the suffix (reducers,
// joins, top-k) then runs once over the concatenated rows.
//
// Exactness: every prefix operator is row-local with linear virtual cost, so
// running it per chunk and concatenating outputs in chunk order yields
// byte-identical rows and chunk-sum costs identical to the single-shot Run.
// Stage-boundary operators see every row at once, exactly as in Run. The
// swap itself is only outcome-safe if the replacement filter accepts exactly
// the blobs the old one accepts — the optimizer's Reoptimize guarantees that
// by reordering short-circuit evaluation without touching leaves or
// thresholds; RunAdaptive itself just performs whatever swap the decider
// asks for.

// ChunkStats describes one completed adaptive chunk to the swap decider.
type ChunkStats struct {
	// Chunk is the 0-based index of the chunk that just finished.
	Chunk int
	// TotalChunks is the run's chunk count.
	TotalChunks int
	// Rows is how many source rows the chunk contained.
	Rows int
	// Cost is the virtual cost the prefix charged so far, all chunks.
	Cost float64
}

// SwapDecider is consulted after each adaptive chunk except the last. A
// non-nil filter return hot-swaps the plan's PP filter for the remaining
// chunks; nil keeps the current plan. An error is absorbed gracefully: the
// run continues on the current plan and Result.SwapErrors counts the event
// (the caller's decider wrapper owns retries, budgets and breakers).
type SwapDecider func(cs ChunkStats) (BlobFilter, error)

// AdaptiveConfig configures RunAdaptive.
type AdaptiveConfig struct {
	// ChunkRows is the number of source rows per adaptive chunk. Zero (or a
	// nil Decide) runs the prefix as a single chunk with no swap points.
	ChunkRows int
	// Decide is the chunk-boundary swap hook.
	Decide SwapDecider
}

// PlanSwap records one mid-run hot-swap.
type PlanSwap struct {
	// Chunk is the first chunk executed under the new filter.
	Chunk int
	// OpIndex is the swapped operator's plan position.
	OpIndex int
	// Old and New are the operator names before and after the swap.
	Old, New string
}

// opAcc accumulates one plan position's accounting across chunks.
type opAcc struct {
	// ran marks positions that executed at least once; only those are
	// emitted and reported when a run fails part-way.
	ran             bool
	rowsIn, rowsOut int
	cost            float64
	wallNS          int64
	tally           retryTally
	ctally          CacheTally
	// span is the position's operator span, opened at its first execution so
	// that worker-chunk spans of every execution parent under it. It stays
	// the zero Span when tracing is off.
	span obs.Span
}

// RunAdaptive is the engine's one executor. It runs the source, sends its
// output through the row-local prefix chunk by chunk — consulting
// acfg.Decide between chunks — and then runs the stage-boundary suffix once
// over the concatenated rows. Results are identical to Run for any
// outcome-equivalent decider; cost accounting differs only by attribution of
// the swapped operator's chunks to its old vs new name. With no chunk size,
// no decider, or no PP filter in the prefix there is nothing to adapt: the
// prefix runs as one chunk, Result.Chunks stays 0 and the root span is named
// "plan" rather than "plan[adaptive]".
func RunAdaptive(p Plan, cfg Config, acfg AdaptiveConfig) (*Result, error) {
	cfg.fill()
	if len(p.Ops) == 0 {
		return nil, fmt.Errorf("engine: empty plan")
	}
	// The prefix is the source plus every row-local operator after it; a
	// swappable PP filter must be inside it.
	split := 1
	for split < len(p.Ops) && rowLocal(p.Ops[split]) {
		split++
	}
	swapIdx := -1
	if acfg.ChunkRows > 0 && acfg.Decide != nil && !p.Ops[0].StageBoundary() {
		for i := 1; i < split; i++ {
			if _, ok := p.Ops[i].(*PPFilter); ok {
				swapIdx = i
				break
			}
		}
	}
	adaptive := swapIdx >= 0
	ops := p.Ops
	spanName := "plan"
	if adaptive {
		ops = append([]Operator(nil), p.Ops...) // swaps must not mutate the caller's plan
		spanName = "plan[adaptive]"
	}
	r := &run{cfg: cfg, ops: ops, accs: make([]opAcc, len(ops)), stageCosts: []float64{0}}
	r.span = cfg.Obs.BeginCtx(cfg.Trace, obs.KindRun, spanName)
	r.start = time.Now()
	var swaps []PlanSwap
	swapErrors := 0

	// The source runs once (its cost does not depend on chunking); what it
	// yields is then processed chunk by chunk through the rest of the
	// prefix. A Scan yields its blobs, which the PP filters directly after
	// it test in the source stage (source.go); the row stage (rowstage.go)
	// starts at position first, carries their survivors a morsel at a time
	// as positions and column vectors, and makes rows only for what it
	// emits. Any other source yields rows.
	scan, isScan := ops[0].(*Scan)
	first := 1
	var rows []Row
	var n int
	var err error
	if isScan {
		for first < split && isPPFilter(ops[first]) {
			first++
		}
		n = len(scan.Blobs)
		r.charge(r.open(0), 0, n, scanCost*float64(n), 0)
	} else {
		if rows, err = r.exec(0, nil); err != nil {
			return nil, err
		}
		n = len(rows)
	}
	bounds := [][2]int{{0, n}}
	if adaptive {
		bounds = chunkBounds(n, acfg.ChunkRows)
	}
	var prefixOut []Row
	for ci, b := range bounds {
		var in rowInput
		var s *filterScratch
		if isScan {
			in, s = r.source(scan.Blobs[b[0]:b[1]], first)
		} else {
			in.rows = rows[b[0]:b[1]]
		}
		prefixOut, err = r.rowStage(in, first, split, prefixOut)
		if s != nil {
			putFilterScratch(s)
		}
		if err != nil {
			return nil, err
		}
		if ci == len(bounds)-1 {
			break // no remaining chunks to adapt for
		}
		prefixCost := 0.0
		for i := 0; i < split; i++ {
			prefixCost += r.accs[i].cost
		}
		newF, derr := acfg.Decide(ChunkStats{
			Chunk: ci, TotalChunks: len(bounds), Rows: b[1] - b[0], Cost: prefixCost,
		})
		if derr != nil {
			// Graceful degradation: the current plan keeps running.
			swapErrors++
			continue
		}
		if newF == nil {
			continue
		}
		old := ops[swapIdx].Name()
		ops[swapIdx] = &PPFilter{F: newF}
		swaps = append(swaps, PlanSwap{
			Chunk: ci + 1, OpIndex: swapIdx, Old: old, New: ops[swapIdx].Name(),
		})
	}

	// Suffix: from the first operator that is not row-local on, operators
	// see every row at once; the row-local ones after each of them run as a
	// row stage over its rows.
	rows = prefixOut
	for i := split; i < len(ops); {
		j := i
		for j < len(ops) && rowLocal(ops[j]) {
			j++
		}
		if j > i {
			rows, err = r.rowStage(rowInput{rows: rows}, i, j, nil)
		} else {
			rows, err = r.exec(i, rows)
			j++
		}
		if err != nil {
			return nil, err
		}
		i = j
	}

	latency := 0.0
	for _, c := range r.stageCosts {
		latency += c/float64(cfg.Parallelism) + cfg.StageOverheadMS
	}
	emitOps(cfg, ops, r.accs)
	r.span.CostVMS = r.cluster
	r.span.RowsOut = len(rows)
	r.span.SetAttr("stages", strconv.Itoa(len(r.stageCosts)))
	r.span.SetAttr("latency_vms", strconv.FormatFloat(latency, 'f', 1, 64))
	res := &Result{
		Rows:        rows,
		ClusterTime: r.cluster,
		Latency:     latency,
		Stages:      len(r.stageCosts),
		PerOp:       make([]OpStats, len(ops)),
		Swaps:       swaps,
		SwapErrors:  swapErrors,
	}
	if adaptive {
		res.Chunks = len(bounds)
		r.span.SetAttr("chunks", strconv.Itoa(len(bounds)))
		r.span.SetAttr("swaps", strconv.Itoa(len(swaps)))
	}
	cfg.Obs.End(&r.span)
	for i, op := range ops {
		acc := &r.accs[i]
		hits, misses := acc.ctally.Counts()
		res.PerOp[i] = OpStats{
			Name: op.Name(), RowsIn: acc.rowsIn, RowsOut: acc.rowsOut,
			Cost: acc.cost, WallNS: acc.wallNS,
			StageBoundary: op.StageBoundary(), PPFilter: isPPFilter(op),
			Retries: acc.tally.retries, Timeouts: acc.tally.timeouts,
			CacheHits: hits, CacheMisses: misses,
		}
	}
	emitRunMetrics(cfg.Metrics, res, time.Since(r.start).Nanoseconds(), cfg.Trace.TraceID)
	return res, nil
}

func isPPFilter(op Operator) bool {
	_, ok := op.(*PPFilter)
	return ok
}

// run is one RunAdaptive invocation's accounting.
type run struct {
	cfg  Config
	ops  []Operator
	accs []opAcc
	span obs.Span // the run span
	// start is when the run began.
	start time.Time
	// cluster is ClusterTime: every operator execution's cost, in execution
	// order.
	cluster float64
	// stageCosts[i] accumulates the virtual cost of stage i.
	stageCosts []float64
}

// open starts one execution of ops[i]: a stage boundary opens a new stage,
// and the position's span opens at its first execution, so that
// worker-chunk spans of every execution parent under it.
func (r *run) open(i int) *opAcc {
	if r.ops[i].StageBoundary() {
		r.stageCosts = append(r.stageCosts, 0)
	}
	acc := &r.accs[i]
	if !acc.ran {
		acc.ran = true
		acc.span = r.cfg.Obs.BeginChild(&r.span, obs.KindOperator, r.ops[i].Name())
	}
	return acc
}

// charge books one execution that consumed in rows, made out rows, cost
// cost and took wallNS.
func (r *run) charge(acc *opAcc, in, out int, cost float64, wallNS int64) {
	acc.wallNS += wallNS
	r.cluster += cost
	acc.cost += cost
	acc.rowsIn += in
	acc.rowsOut += out
	r.stageCosts[len(r.stageCosts)-1] += cost
}

// exec runs ops[i] over in, operator-at-a-time: the source when it is not a
// Scan, and the stage-boundary suffix.
func (r *run) exec(i int, in []Row) ([]Row, error) {
	acc, start := r.open(i), time.Now()
	out, cost, err := r.ops[i].Exec(in)
	if err != nil {
		out = nil
	}
	r.charge(acc, len(in), len(out), cost, time.Since(start).Nanoseconds())
	if err != nil {
		return nil, r.fail(i, err)
	}
	return out, nil
}

// fail ends the run at a failure of ops[i], everything executed so far
// already charged: the failing operator's span and the run span carry the
// error, and metrics count the failed run.
func (r *run) fail(i int, err error) error {
	r.accs[i].span.SetAttr("error", err.Error())
	emitOps(r.cfg, r.ops, r.accs)
	r.span.CostVMS = r.cluster
	r.span.SetAttr("error", err.Error())
	r.cfg.Obs.End(&r.span)
	emitRunMetrics(r.cfg.Metrics, nil, time.Since(r.start).Nanoseconds(), r.cfg.Trace.TraceID)
	return &OpError{Stage: len(r.stageCosts) - 1, Op: r.ops[i].Name(), Err: err}
}

// chunkBounds splits n rows into ceil(n/size) contiguous chunks of at most
// size rows (at least one chunk, possibly empty, so the prefix always
// executes). Adaptive chunks and worker chunks are both cut with it.
func chunkBounds(n, size int) [][2]int {
	var out [][2]int
	for start := 0; ; start += size {
		end := start + size
		if end > n {
			end = n
		}
		out = append(out, [2]int{start, end})
		if end >= n {
			return out
		}
	}
}

// emitOps publishes, in plan order, one operator span and one set of operator
// metrics for every position that executed. A position the prefix ran once
// per chunk appears as one span whose wall time, cost and cardinalities sum
// its executions; a swapped position carries its final name.
func emitOps(cfg Config, ops []Operator, accs []opAcc) {
	for i := range accs {
		acc := &accs[i]
		if !acc.ran {
			continue
		}
		sp := acc.span
		sp.Name = ops[i].Name()
		sp.WallNS = acc.wallNS
		sp.CostVMS = acc.cost
		sp.RowsIn = acc.rowsIn
		sp.RowsOut = acc.rowsOut
		cfg.Obs.EmitSpan(sp)
		emitOpMetrics(cfg.Metrics, ops[i], acc)
	}
}
