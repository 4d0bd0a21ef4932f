package engine_test

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"probpred/internal/blob"
	"probpred/internal/engine"
	"probpred/internal/fault"
	"probpred/internal/mathx"
	"probpred/internal/query"
	"probpred/internal/udf"
)

// The row-at-a-time reference executor: the engine's run loop as it was
// before the source stage and the batch processor contract — Scan makes a
// row per blob, a PP filter gathers the blobs back out of its rows, and a
// processor is applied to one row at a time (a batch of one), each row under
// the retry policy on its own. TestBatchExecutorMatchesRowReference holds
// engine.RunAdaptive to it on random plans: same rows in the same order, the
// same ClusterTime and Latency bits, the same ledger but for wall time, the
// same failure.

const refScanCost = 0.05

// refAcc is one plan position's accounting in the reference.
type refAcc struct {
	rowsIn, rowsOut   int
	cost              float64
	retries, timeouts int
	ct                engine.CacheTally
}

func refRun(p engine.Plan, cfg engine.Config, acfg engine.AdaptiveConfig) (*engine.Result, error) {
	if cfg.Parallelism == 0 {
		cfg.Parallelism = 16
	}
	if cfg.NoStageOverhead {
		cfg.StageOverheadMS = 0
	} else if cfg.StageOverheadMS == 0 {
		cfg.StageOverheadMS = 15000
	}
	split := 1
	for split < len(p.Ops) && !p.Ops[split].StageBoundary() {
		split++
	}
	swapIdx := -1
	if acfg.ChunkRows > 0 && acfg.Decide != nil && !p.Ops[0].StageBoundary() {
		for i := 1; i < split; i++ {
			if _, ok := p.Ops[i].(*engine.PPFilter); ok {
				swapIdx = i
				break
			}
		}
	}
	adaptive := swapIdx >= 0
	ops := p.Ops
	if adaptive {
		ops = append([]engine.Operator(nil), p.Ops...)
	}
	cluster := 0.0
	accs := make([]refAcc, len(ops))
	stageCosts := []float64{0}
	runOne := func(i int, in []engine.Row) ([]engine.Row, error) {
		op := ops[i]
		acc := &accs[i]
		if op.StageBoundary() {
			stageCosts = append(stageCosts, 0)
		}
		out, cost, err := refOp(op, in, cfg, acc)
		cluster += cost
		acc.cost += cost
		acc.rowsIn += len(in)
		stageCosts[len(stageCosts)-1] += cost
		if err != nil {
			return nil, &engine.OpError{Stage: len(stageCosts) - 1, Op: op.Name(), Err: err}
		}
		acc.rowsOut += len(out)
		return out, nil
	}
	rows, err := runOne(0, nil)
	if err != nil {
		return nil, err
	}
	bounds := [][2]int{{0, len(rows)}}
	if adaptive {
		bounds = refChunkBounds(len(rows), acfg.ChunkRows)
	}
	var swaps []engine.PlanSwap
	swapErrors := 0
	var prefixOut []engine.Row
	for ci, b := range bounds {
		chunk := rows[b[0]:b[1]]
		for i := 1; i < split; i++ {
			if chunk, err = runOne(i, chunk); err != nil {
				return nil, err
			}
		}
		prefixOut = append(prefixOut, chunk...)
		if ci == len(bounds)-1 || !adaptive {
			break
		}
		prefixCost := 0.0
		for i := 0; i < split; i++ {
			prefixCost += accs[i].cost
		}
		newF, derr := acfg.Decide(engine.ChunkStats{Chunk: ci, TotalChunks: len(bounds), Rows: b[1] - b[0], Cost: prefixCost})
		if derr != nil {
			swapErrors++
			continue
		}
		if newF == nil {
			continue
		}
		old := ops[swapIdx].Name()
		ops[swapIdx] = &engine.PPFilter{F: newF}
		swaps = append(swaps, engine.PlanSwap{Chunk: ci + 1, OpIndex: swapIdx, Old: old, New: ops[swapIdx].Name()})
	}
	rows = prefixOut
	for i := split; i < len(ops); i++ {
		if rows, err = runOne(i, rows); err != nil {
			return nil, err
		}
	}
	latency := 0.0
	for _, c := range stageCosts {
		latency += c/float64(cfg.Parallelism) + cfg.StageOverheadMS
	}
	res := &engine.Result{
		Rows: rows, ClusterTime: cluster, Latency: latency, Stages: len(stageCosts),
		PerOp: make([]engine.OpStats, len(ops)), Swaps: swaps, SwapErrors: swapErrors,
	}
	if adaptive {
		res.Chunks = len(bounds)
	}
	for i, op := range ops {
		acc := &accs[i]
		_, isPP := op.(*engine.PPFilter)
		hits, misses := acc.ct.Counts()
		res.PerOp[i] = engine.OpStats{
			Name: op.Name(), RowsIn: acc.rowsIn, RowsOut: acc.rowsOut, Cost: acc.cost,
			StageBoundary: op.StageBoundary(), PPFilter: isPP,
			Retries: acc.retries, Timeouts: acc.timeouts, CacheHits: hits, CacheMisses: misses,
		}
	}
	return res, nil
}

func refChunkBounds(n, size int) [][2]int {
	var out [][2]int
	for start := 0; ; start += size {
		end := min(start+size, n)
		out = append(out, [2]int{start, end})
		if end >= n {
			return out
		}
	}
}

// refOp runs one operator: Scan materializes every blob, filters and
// processors split across workers, everything else is Exec.
func refOp(op engine.Operator, in []engine.Row, cfg engine.Config, acc *refAcc) ([]engine.Row, float64, error) {
	switch o := op.(type) {
	case *engine.Scan:
		rows := make([]engine.Row, len(o.Blobs))
		for i, b := range o.Blobs {
			rows[i] = engine.NewRow(b)
		}
		return rows, refScanCost * float64(len(rows)), nil
	case *engine.PPFilter:
		return refWorkers(in, cfg.Workers, func(chunk []engine.Row) ([]engine.Row, float64, int, int, error) {
			blobs := make([]blob.Blob, len(chunk))
			for i := range chunk {
				blobs[i] = chunk[i].Blob
			}
			pass := make([]bool, len(chunk))
			cost := make([]float64, len(chunk))
			o.F.TestBatch(blobs, pass, cost, &acc.ct)
			total := 0.0
			var out []engine.Row
			for i, ok := range pass {
				total += cost[i]
				if ok {
					out = append(out, chunk[i])
				}
			}
			return out, total, 0, 0, nil
		}, acc)
	case *engine.Process:
		return refWorkers(in, cfg.Workers, func(chunk []engine.Row) ([]engine.Row, float64, int, int, error) {
			var out []engine.Row
			total, retries, timeouts := 0.0, 0, 0
			for _, r := range chunk {
				rows, cost, re, to, err := refApplyWithRetry(o.P, r, cfg.Retry)
				total += cost
				retries += re
				timeouts += to
				if err != nil {
					return nil, total, retries, timeouts, fmt.Errorf("processor %s: %w", o.P.Name(), err)
				}
				out = append(out, rows...)
			}
			return out, total, retries, timeouts, nil
		}, acc)
	}
	return op.Exec(in)
}

// refWorkers splits in into worker chunks exactly as the engine does, runs
// them concurrently, and joins outputs and costs in chunk order.
func refWorkers(in []engine.Row, workers int, chunk func([]engine.Row) ([]engine.Row, float64, int, int, error), acc *refAcc) ([]engine.Row, float64, error) {
	bounds := [][2]int{{0, len(in)}}
	if workers > 1 && len(in) >= 2*workers {
		bounds = refChunkBounds(len(in), (len(in)+workers-1)/workers)
	}
	type part struct {
		out               []engine.Row
		cost              float64
		retries, timeouts int
		err               error
	}
	parts := make([]part, len(bounds))
	var wg sync.WaitGroup
	for ci, b := range bounds {
		wg.Add(1)
		go func(ci int, lo, hi int) {
			defer wg.Done()
			p := &parts[ci]
			p.out, p.cost, p.retries, p.timeouts, p.err = chunk(in[lo:hi])
		}(ci, b[0], b[1])
	}
	wg.Wait()
	total := 0.0
	var out []engine.Row
	var err error
	for _, p := range parts {
		total += p.cost
		acc.retries += p.retries
		acc.timeouts += p.timeouts
		out = append(out, p.out...)
		if err == nil {
			err = p.err
		}
	}
	if err != nil {
		return nil, total, err
	}
	return out, total, nil
}

// refTimeout is the engine's row-timeout failure, text included.
type refTimeout struct {
	op              string
	elapsed, budget float64
}

func (e *refTimeout) Error() string {
	return fmt.Sprintf("engine: %s row ran %.0f virtual ms, exceeding the %.0f ms budget", e.op, e.elapsed, e.budget)
}

func (e *refTimeout) Transient() bool { return true }

// refApplyOnce runs one attempt on one row: a batch of one.
func refApplyOnce(p engine.Processor, r engine.Row) ([]engine.Row, float64, error) {
	var out []engine.Row
	var err error
	elapsed := p.Cost()
	if tp, ok := p.(engine.TimedProcessor); ok {
		var times []float64
		out, times, err = tp.ApplyTimed([]engine.Row{r}, nil, nil)
		elapsed = times[0]
	} else {
		out, err = p.ApplyBatch([]engine.Row{r}, nil)
	}
	var re *engine.RowError
	if errors.As(err, &re) {
		err = re.Err
	}
	return out, elapsed, err
}

func refApplyWithRetry(p engine.Processor, r engine.Row, pol engine.RetryPolicy) (rows []engine.Row, total float64, retries, timeouts int, err error) {
	attempts := max(pol.MaxAttempts, 1)
	for attempt := 1; ; attempt++ {
		out, elapsed, aerr := refApplyOnce(p, r)
		if pol.RowTimeoutMS > 0 && elapsed > pol.RowTimeoutMS {
			aerr = &refTimeout{op: p.Name(), elapsed: elapsed, budget: pol.RowTimeoutMS}
			elapsed = pol.RowTimeoutMS
			out = nil
			timeouts++
		}
		total += elapsed
		if aerr == nil {
			return out, total, retries, timeouts, nil
		}
		if !engine.IsTransient(aerr) || attempt >= attempts {
			return nil, total, retries, timeouts, aerr
		}
		retries++
		base, factor := pol.BackoffBaseMS, pol.BackoffFactor
		if base == 0 {
			base = 50
		}
		if factor == 0 {
			factor = 2
		}
		total += base * math.Pow(factor, float64(attempt-1))
	}
}

// Random plans: Scan → 0–2 PP filters → 0–3 processors → σ.

var refCols = []string{"x", "y", "z"}

// refBlobs makes n blobs with truth x, y, z; with holes, every blob whose
// ID is 50 modulo 97 lacks z, so a processor materializing z fails on it.
func refBlobs(n int, rng *mathx.RNG, holes bool) []blob.Blob {
	full, short := blob.NewTruthKeys("x", "y", "z"), blob.NewTruthKeys("x", "y")
	out := make([]blob.Blob, n)
	for i := range out {
		x, y, z := float64(rng.Intn(100)), float64(rng.Intn(100)), float64(rng.Intn(100))
		out[i] = blob.FromDense(i, mathx.Vec{x})
		if holes && i%97 == 50 {
			out[i].Truth = short.Row(x, y)
		} else {
			out[i].Truth = full.Row(x, y, z)
		}
	}
	return out
}

// refFilter passes blobs whose col exceeds t, charging cost per blob; memo
// (optional) plays a cross-query score cache, counted on the run's tally.
type refFilter struct {
	name string
	col  string
	t    float64
	cost float64
	memo *sync.Map
}

func (f refFilter) Name() string { return f.name }
func (f refFilter) TestBatch(blobs []blob.Blob, pass []bool, cost []float64, ct *engine.CacheTally) {
	for i, b := range blobs {
		v, _ := b.TruthVal(f.col)
		if f.memo != nil {
			if _, hit := f.memo.LoadOrStore(b.ID, v); hit {
				ct.Hit(1)
			} else {
				ct.Miss(1)
			}
		}
		pass[i], cost[i] = v > f.t, f.cost
	}
}

// colUDF materializes col from truth, failing permanently where it is
// missing; keep (optional) drops rows and dup doubles some.
type colUDF struct {
	name      string
	col       string
	cost      float64
	keep, dup func(blob.Blob) bool
}

func (u colUDF) Name() string  { return u.name }
func (u colUDF) Cost() float64 { return u.cost }
func (u colUDF) ApplyBatch(in, out []engine.Row) ([]engine.Row, error) {
	slab := engine.NewColumnSlab(len(in))
	for i, r := range in {
		v, ok := r.Blob.TruthVal(u.col)
		if !ok {
			return out, &engine.RowError{Index: i, Err: fmt.Errorf("%s: blob %d has no %s", u.name, r.Blob.ID, u.col)}
		}
		if u.keep != nil && !u.keep(r.Blob) {
			continue
		}
		nr := slab.With(r, u.col, query.Number(v))
		out = append(out, nr)
		if u.dup != nil && u.dup(r.Blob) {
			out = append(out, nr)
		}
	}
	return out, nil
}

// refCase is one drawn plan: build makes it afresh (fault attempt counts,
// score memos), so the reference and the engine each run their own copy.
type refCase struct {
	desc  string
	build func() engine.Plan
	retry engine.RetryPolicy
	swap  bool
}

func drawRefCase(rng *mathx.RNG, blobs []blob.Blob) refCase {
	var desc string
	type filterSpec struct {
		col     string
		t, cost float64
		cached  bool
	}
	var filters []filterSpec
	for n := rng.Intn(3); len(filters) < n; {
		f := filterSpec{
			col: refCols[rng.Intn(3)], t: float64(rng.Intn(90)),
			cost: 0.1 + float64(rng.Intn(9))/7, cached: rng.Intn(2) == 0,
		}
		filters = append(filters, f)
		desc += fmt.Sprintf("PP[%s>%v c=%.3f cached=%v] ", f.col, f.t, f.cost, f.cached)
	}
	type procSpec struct {
		col         string
		cost        float64
		kind        int // 0 plain, 1 dropping, 2 duplicating
		faulty      bool
		consecutive int
	}
	var procs []procSpec
	dupSeen := false
	for n := rng.Intn(4); len(procs) < n; {
		p := procSpec{col: refCols[rng.Intn(3)], cost: 1 + float64(rng.Intn(20))/3, kind: rng.Intn(3)}
		// A fault schedule counts attempts per blob; after a duplicating
		// UDF two rows of one blob could race for them across workers.
		p.faulty = !dupSeen && rng.Intn(2) == 0
		p.consecutive = 1 + rng.Intn(3)
		dupSeen = dupSeen || p.kind == 2
		procs = append(procs, p)
		desc += fmt.Sprintf("U[%s c=%.3f kind=%d faulty=%v/%d] ", p.col, p.cost, p.kind, p.faulty, p.consecutive)
	}
	selCol := "x"
	if len(procs) > 0 {
		selCol = procs[rng.Intn(len(procs))].col
	}
	sel := query.MustParse(fmt.Sprintf("%s>=%d", selCol, rng.Intn(60)))
	desc += "σ[" + sel.String() + "]"
	retry := engine.RetryPolicy{
		MaxAttempts:   []int{0, 1, 3, 4, 4, 6}[rng.Intn(6)],
		BackoffBaseMS: []float64{0, 0.7, 3.3}[rng.Intn(3)],
		BackoffFactor: []float64{0, 1.5}[rng.Intn(2)],
	}
	if rng.Intn(2) == 0 {
		// From below the cheapest UDF (every attempt killed) to above a
		// straggler's tenfold duration.
		retry.RowTimeoutMS = []float64{0.9, 12, 30, 45, 90}[rng.Intn(5)]
	}
	faultSeed := rng.Uint64()
	build := func() engine.Plan {
		ops := []engine.Operator{&engine.Scan{Blobs: blobs}}
		for i, f := range filters {
			rf := refFilter{name: fmt.Sprintf("f%d", i), col: f.col, t: f.t, cost: f.cost}
			if f.cached {
				rf.memo = &sync.Map{}
			}
			ops = append(ops, &engine.PPFilter{F: rf})
		}
		for i, p := range procs {
			u := colUDF{name: fmt.Sprintf("U%d_%s", i, p.col), col: p.col, cost: p.cost}
			switch p.kind {
			case 1:
				u.keep = func(b blob.Blob) bool { return b.ID%5 != 0 }
			case 2:
				u.dup = func(b blob.Blob) bool { return b.ID%3 == 0 }
			}
			var proc engine.Processor = u
			if p.faulty {
				inj := fault.NewInjector(faultSeed + uint64(i))
				inj.SetDefault(fault.Spec{TransientRate: 0.10, StragglerRate: 0.05, StragglerFactor: 10, MaxConsecutive: p.consecutive})
				proc = udf.Faulty(u, inj)
			}
			ops = append(ops, &engine.Process{P: proc})
		}
		return engine.Plan{Ops: append(ops, &engine.Select{Pred: sel})}
	}
	return refCase{desc: desc, build: build, retry: retry, swap: len(filters) > 0 && rng.Intn(2) == 0}
}

// swapAfterFirst swaps the plan's first filter, after chunk 0, for one that
// passes the same blobs at a different cost — what Reoptimize's reordering
// amounts to.
func swapAfterFirst(plan engine.Plan) engine.SwapDecider {
	done := false
	return func(engine.ChunkStats) (engine.BlobFilter, error) {
		if done {
			return nil, nil
		}
		done = true
		for _, op := range plan.Ops {
			if pf, ok := op.(*engine.PPFilter); ok {
				f := pf.F.(refFilter)
				f.name += "'"
				f.cost /= 3
				return f, nil
			}
		}
		return nil, nil
	}
}

func sameRows(a, b []engine.Row) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d rows, reference %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Blob.ID != b[i].Blob.ID || !slices.Equal(a[i].Columns(), b[i].Columns()) {
			return fmt.Errorf("row %d: blob %d %v, reference blob %d %v",
				i, a[i].Blob.ID, a[i].Columns(), b[i].Blob.ID, b[i].Columns())
		}
	}
	return nil
}

// TestBatchExecutorMatchesRowReference draws random plans — Scan, zero to two
// PP filters (some behind a score memo), zero to three processors (plain,
// row-dropping or row-doubling, half of them behind 10 % transient faults
// and 5 % stragglers, under a random retry policy and row timeout) and a
// select — and runs each at Workers {1, 4} × adaptive ChunkRows {0, 7,
// 1000}, the adaptive runs with a never-swapping decider or one that swaps a
// filter after the first chunk. The engine must match the row-at-a-time
// reference bit for bit: rows and their order, ClusterTime and Latency,
// every PerOp field but WallNS, chunks and swaps; a failed run must fail
// with the same OpError stage, operator and text.
func TestBatchExecutorMatchesRowReference(t *testing.T) {
	rng := mathx.NewRNG(26)
	failures, faulted := 0, 0
	const plans = 70
	for k := 0; k < plans; k++ {
		blobs := refBlobs(150+rng.Intn(300), rng, rng.Intn(4) == 0)
		c := drawRefCase(rng, blobs)
		for _, workers := range []int{1, 4} {
			for _, chunkRows := range []int{0, 7, 1000} {
				name := fmt.Sprintf("plan %d workers=%d chunk=%d: %s retry=%+v swap=%v", k, workers, chunkRows, c.desc, c.retry, c.swap)
				cfg := engine.Config{Workers: workers, Retry: c.retry}
				runBoth := func(run func(engine.Plan, engine.Config, engine.AdaptiveConfig) (*engine.Result, error)) (*engine.Result, error) {
					plan := c.build()
					acfg := engine.AdaptiveConfig{ChunkRows: chunkRows}
					if chunkRows > 0 {
						acfg.Decide = func(engine.ChunkStats) (engine.BlobFilter, error) { return nil, nil }
						if c.swap {
							acfg.Decide = swapAfterFirst(plan)
						}
					}
					return run(plan, cfg, acfg)
				}
				want, werr := runBoth(refRun)
				got, gerr := runBoth(engine.RunAdaptive)
				if (werr != nil) != (gerr != nil) {
					t.Fatalf("%s\nerror %v, reference %v", name, gerr, werr)
				}
				if werr != nil {
					failures++
					var wo, go_ *engine.OpError
					if !errors.As(werr, &wo) || !errors.As(gerr, &go_) {
						t.Fatalf("%s\nnot OpErrors: %v / reference %v", name, gerr, werr)
					}
					if go_.Stage != wo.Stage || go_.Op != wo.Op || gerr.Error() != werr.Error() {
						t.Fatalf("%s\nerror %q (stage %d, %s)\nreference %q (stage %d, %s)",
							name, gerr, go_.Stage, go_.Op, werr, wo.Stage, wo.Op)
					}
					continue
				}
				if err := sameRows(got.Rows, want.Rows); err != nil {
					t.Fatalf("%s\n%v", name, err)
				}
				if math.Float64bits(got.ClusterTime) != math.Float64bits(want.ClusterTime) ||
					math.Float64bits(got.Latency) != math.Float64bits(want.Latency) || got.Stages != want.Stages {
					t.Fatalf("%s\ncluster %v latency %v stages %d, reference %v %v %d",
						name, got.ClusterTime, got.Latency, got.Stages, want.ClusterTime, want.Latency, want.Stages)
				}
				if got.Chunks != want.Chunks || got.SwapErrors != want.SwapErrors || !slices.Equal(got.Swaps, want.Swaps) {
					t.Fatalf("%s\nchunks %d swaps %v, reference %d %v", name, got.Chunks, got.Swaps, want.Chunks, want.Swaps)
				}
				if len(got.PerOp) != len(want.PerOp) {
					t.Fatalf("%s\n%d PerOp rows, reference %d", name, len(got.PerOp), len(want.PerOp))
				}
				for i := range got.PerOp {
					g := got.PerOp[i]
					g.WallNS = 0
					if g != want.PerOp[i] {
						t.Fatalf("%s\nPerOp[%d] = %+v\nreference  %+v", name, i, g, want.PerOp[i])
					}
					if g.Retries+g.Timeouts > 0 {
						faulted++
					}
				}
			}
		}
	}
	// The draw must have exercised what it claims to.
	t.Logf("%d of %d runs failed; %d positions retried or timed out", failures, plans*6, faulted)
	if failures == 0 || faulted == 0 || failures > plans*6/2 {
		t.Fatalf("%d failed runs and %d faulted positions over %d runs: the draw does not cover both paths", failures, faulted, plans*6)
	}
}
