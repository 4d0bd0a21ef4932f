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
// before the source stage, the batch processor contract and columns before
// rows — Scan makes a row per blob, a PP filter gathers the blobs back out of
// its rows, a processor is applied to one row at a time (a batch of one),
// each row under the retry policy on its own, its columns added to the row
// with Row.With, and Select and Project read and make whole rows — with the
// row stage's one rule of order: the row-local operators after the source
// filter, and after each stage boundary, run one morsel of refMorsel input
// rows at a time, so a failure is the first in morsel order. TestBatchExecutorMatchesRowReference
// holds engine.Run to it on random plans: same rows in the same
// order, the same ClusterTime and Latency bits, the same ledger but for wall
// time, the same failure.

const (
	refScanCost   = 0.05
	refSelectCost = 0.01
	refMorsel     = 1024
)

// refAcc is one plan position's accounting in the reference.
type refAcc struct {
	rowsIn, rowsOut   int
	cost              float64
	retries, timeouts int
	ct                engine.CacheTally
}

func refRun(p engine.Plan, cfg engine.Config) (*engine.Result, error) {
	overhead := 15000.0
	if cfg.NoStageOverhead {
		overhead = 0
	}
	split := 1
	for split < len(p.Ops) && !p.Ops[split].StageBoundary() {
		split++
	}
	first := 1
	for first < split {
		if _, ok := p.Ops[first].(*engine.PPFilter); !ok {
			break
		}
		first++
	}
	ops := p.Ops
	cluster := 0.0
	accs := make([]refAcc, len(ops))
	stageCosts := []float64{0}
	charge := func(i, in, out int, cost float64) {
		cluster += cost
		accs[i].cost += cost
		accs[i].rowsIn += in
		accs[i].rowsOut += out
		stageCosts[len(stageCosts)-1] += cost
	}
	runOne := func(i int, in []engine.Row) ([]engine.Row, error) {
		op := ops[i]
		if op.StageBoundary() {
			stageCosts = append(stageCosts, 0)
		}
		out, cost, err := refOp(op, in, &accs[i])
		charge(i, len(in), len(out), cost)
		if err != nil {
			return nil, &engine.OpError{Stage: len(stageCosts) - 1, Op: op.Name(), Err: err}
		}
		return out, nil
	}
	rows, err := runOne(0, nil)
	if err != nil {
		return nil, err
	}
	for i := 1; i < first; i++ {
		if rows, err = runOne(i, rows); err != nil {
			return nil, err
		}
	}
	out, sums, f, err := refRowStage(ops[first:split], rows, cfg)
	if err != nil {
		return nil, &engine.OpError{Stage: len(stageCosts) - 1, Op: ops[first+f].Name(), Err: err}
	}
	for j, sum := range sums {
		charge(first+j, sum.in, sum.out, sum.cost)
		accs[first+j].retries += sum.retries
		accs[first+j].timeouts += sum.timeouts
	}
	// The suffix: each stage boundary over every row at once, and the
	// row-local operators after it as a row stage over its rows.
	rows = out
	for i := split; i < len(ops); {
		if ops[i].StageBoundary() {
			if rows, err = runOne(i, rows); err != nil {
				return nil, err
			}
			i++
			continue
		}
		j := i
		for j < len(ops) && !ops[j].StageBoundary() {
			j++
		}
		out, sums, f, err := refRowStage(ops[i:j], rows, cfg)
		if err != nil {
			return nil, &engine.OpError{Stage: len(stageCosts) - 1, Op: ops[i+f].Name(), Err: err}
		}
		for k, sum := range sums {
			charge(i+k, sum.in, sum.out, sum.cost)
			accs[i+k].retries += sum.retries
			accs[i+k].timeouts += sum.timeouts
		}
		rows, i = out, j
	}
	latency := 0.0
	for _, c := range stageCosts {
		latency += c/16 + overhead
	}
	res := &engine.Result{
		Rows: rows, ClusterTime: cluster, Latency: latency, Stages: len(stageCosts),
		PerOp: make([]engine.OpStats, len(ops)),
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

// refOp runs one operator outside the row stage: Scan materializes every
// blob, a source filter tests its input in one batch, everything else is Exec.
func refOp(op engine.Operator, in []engine.Row, acc *refAcc) ([]engine.Row, float64, error) {
	switch o := op.(type) {
	case *engine.Scan:
		rows := make([]engine.Row, len(o.Blobs))
		for i, b := range o.Blobs {
			rows[i] = engine.NewRow(b)
		}
		return rows, refScanCost * float64(len(rows)), nil
	case *engine.PPFilter:
		out, cost := refTest(o.F, in, &acc.ct)
		return out, cost, nil
	}
	return op.Exec(in)
}

// refTest runs a filter's kernel over rows and returns the ones it passes
// and their costs summed in order.
func refTest(f engine.BlobFilter, rows []engine.Row, ct *engine.CacheTally) ([]engine.Row, float64) {
	blobs := make([]blob.Blob, len(rows))
	for i := range rows {
		blobs[i] = rows[i].Blob
	}
	pass := make([]bool, len(rows))
	cost := make([]float64, len(rows))
	f.TestBatch(blobs, pass, cost, ct)
	total := 0.0
	var out []engine.Row
	for i, ok := range pass {
		total += cost[i]
		if ok {
			out = append(out, rows[i])
		}
	}
	return out, total
}

// refSum is one row-stage position's accounting over one row stage.
type refSum struct {
	in, out           int
	cost              float64
	retries, timeouts int
}

// refRowStage runs the row-stage operators over in: its morsels in order,
// each morsel through every operator a row at a time. A processor's cost is
// a running sum, row by row across the morsels; a select or a projection is
// charged once, from the rows it saw. The first failure, in morsel order,
// stops it and names the failing operator.
func refRowStage(ops []engine.Operator, in []engine.Row, cfg engine.Config) ([]engine.Row, []refSum, int, error) {
	sums := make([]refSum, len(ops))
	var out []engine.Row
	for m := 0; ; m += refMorsel {
		end := min(m+refMorsel, len(in))
		cur := in[m:end]
		for j, op := range ops {
			sums[j].in += len(cur)
			var next []engine.Row
			var err error
			switch o := op.(type) {
			case *engine.Process:
				for _, r := range cur {
					rows, cost, re, to, rerr := refApplyWithRetry(o.P, r, cfg.Retry)
					sums[j].cost += cost
					sums[j].retries += re
					sums[j].timeouts += to
					if rerr != nil {
						err = fmt.Errorf("processor %s: %w", o.P.Name(), rerr)
						break
					}
					next = append(next, rows...)
				}
			case *engine.Select:
				for _, r := range cur {
					ok, eerr := o.Pred.Eval(r.Lookup)
					if eerr != nil {
						err = fmt.Errorf("engine: select: %w", eerr)
						break
					}
					if ok {
						next = append(next, r)
					}
				}
			case *engine.Project:
				for _, r := range cur {
					next = append(next, refProject(o, r))
				}
			default:
				panic("reference: no row-stage rule for " + op.Name())
			}
			if err != nil {
				return nil, nil, j, err
			}
			sums[j].out += len(next)
			cur = next
		}
		out = append(out, cur...)
		if end >= len(in) {
			break
		}
	}
	for j, op := range ops {
		switch o := op.(type) {
		case *engine.Select:
			sums[j].cost = refSelectCost * float64(sums[j].in)
		case *engine.Project:
			unit := refSelectCost
			for _, c := range o.Compute {
				unit += c.Cost
			}
			sums[j].cost = unit * float64(sums[j].in)
		}
	}
	return out, sums, 0, nil
}

// refProject is a projection of one row: its visible columns, renamed or
// dropped, then the computed ones. The draw computes nothing that fails.
func refProject(p *engine.Project, r engine.Row) engine.Row {
	nr := engine.NewRow(r.Blob)
	for _, c := range r.Columns() {
		if slices.Contains(p.Drop, c.Name) {
			continue
		}
		if to, ok := p.Rename[c.Name]; ok {
			c.Name = to
		}
		nr = nr.With(c.Name, c.Val)
	}
	for _, c := range p.Compute {
		v, err := c.Fn(nr)
		if err != nil {
			panic("reference: a drawn projection failed")
		}
		nr = nr.With(c.Name, v)
	}
	return nr
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

// refApplyOnce runs one attempt on one row: a batch of one. The row's
// outputs are made here, column by column with Row.With.
func refApplyOnce(p engine.Processor, r engine.Row) ([]engine.Row, float64, error) {
	cols, copies, elapsed, err := engine.ApplyOneRaw(p, r)
	var re *engine.RowError
	if errors.As(err, &re) {
		err = re.Err
	}
	if err != nil {
		return nil, elapsed, err
	}
	for _, c := range cols {
		r = r.With(c.Name, c.Val)
	}
	out := make([]engine.Row, copies)
	for i := range out {
		out[i] = r
	}
	return out, elapsed, nil
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

// Random plans: Scan → [PP filter] → a row stage → [GroupReduce → a row
// stage] → σ. A row stage interleaves processors — column adders and ones
// emitting zero, one or two rows per input — with, now and then, a
// projection and a select.

var refCols = []string{"x", "y", "z"}

// refBlobs makes n blobs with truth x, y, z and n, the blob's index (a
// filter on n passes an exact count); with holes, every blob whose ID is 50
// modulo 97 lacks z, so a processor materializing z fails on it.
func refBlobs(n int, rng *mathx.RNG, holes bool) []blob.Blob {
	full, short := blob.NewTruthKeys("x", "y", "z", "n"), blob.NewTruthKeys("x", "y", "n")
	out := make([]blob.Blob, n)
	for i := range out {
		x, y, z := float64(rng.Intn(100)), float64(rng.Intn(100)), float64(rng.Intn(100))
		out[i] = blob.FromDense(i, mathx.Vec{x})
		if holes && i%97 == 50 {
			out[i].Truth = short.Row(x, y, float64(i))
		} else {
			out[i].Truth = full.Row(x, y, z, float64(i))
		}
	}
	return out
}

// refMorselEdges are survivor counts on and beside the row stage's morsel
// edges.
var refMorselEdges = []int{0, 1, 1023, 1024, 1025, 2047, 2048, 2049, 3072}

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

// colUDF materializes col from truth, plus add (so that two processors
// adding one column disagree, and the newer must shadow the older), failing
// permanently where it is missing; copies (optional) says how many output
// rows a blob's row makes (0, 1 or 2; one when nil).
type colUDF struct {
	name   string
	col    string
	add    float64
	cost   float64
	copies func(blob.Blob) int
}

func (u colUDF) Name() string  { return u.name }
func (u colUDF) Cost() float64 { return u.cost }
func (u colUDF) Apply(b engine.Batch) error {
	vals := b.Column(u.col)
	for i := range vals {
		bl := b.Blob(i)
		v, ok := bl.TruthVal(u.col)
		if !ok {
			return &engine.RowError{Index: i, Err: fmt.Errorf("%s: blob %d has no %s", u.name, bl.ID, u.col)}
		}
		vals[i] = query.Number(v + u.add)
		if u.copies != nil {
			b.Repeat(i, u.copies(bl))
		}
	}
	return nil
}

// refDedup is a stage boundary that keeps rows whole: it groups rows by blob
// ID modulo 7 and keeps each blob's first row, so the rows after it carry
// their columns from before it and no blob twice (a fault schedule counts
// attempts per blob, and two rows of one blob in two worker ranges would take
// them in a racy order).
type refDedup struct{}

func (refDedup) Name() string  { return "Dedup" }
func (refDedup) Cost() float64 { return 0.3 }
func (refDedup) Key(r engine.Row) (string, error) {
	return fmt.Sprint(r.Blob.ID % 7), nil
}
func (refDedup) Reduce(_ string, rows []engine.Row) ([]engine.Row, error) {
	var out []engine.Row
	seen := map[int]bool{}
	for _, r := range rows {
		if !seen[r.Blob.ID] {
			seen[r.Blob.ID] = true
			out = append(out, r)
		}
	}
	return out, nil
}

// refCase is one drawn plan: build makes it afresh (fault attempt counts,
// score memos), so the reference and the engine each run their own copy.
// The flags say what it holds beyond processors and a select.
type refCase struct {
	desc                      string
	build                     func() engine.Plan
	retry                     engine.RetryPolicy
	project, boundary, shadow bool
}

// drawRefCase draws a plan over blobs; with edge >= 0 its filter passes
// exactly edge blobs. Two axes are retired — a chain of source filters and a
// filter over rows, which Run refuses — but their coins are still drawn and
// discarded, so that every other axis draws as before.
func drawRefCase(rng *mathx.RNG, blobs []blob.Blob, edge int) refCase {
	var c refCase
	type filterSpec struct {
		col     string
		t, cost float64
		cached  bool
	}
	drawFilter := func() filterSpec {
		return filterSpec{
			col: refCols[rng.Intn(3)], t: float64(rng.Intn(90)),
			cost: 0.1 + float64(rng.Intn(9))/7, cached: rng.Intn(2) == 0,
		}
	}
	var filter *filterSpec
	drawn := 0
	if edge >= 0 {
		f := filterSpec{col: "n", t: float64(len(blobs) - edge - 1), cost: 0.1 + float64(rng.Intn(9))/7, cached: rng.Intn(2) == 0}
		filter, drawn = &f, 1
		c.desc += fmt.Sprintf("PP[n>%v (%d pass) c=%.3f cached=%v] ", f.t, edge, f.cost, f.cached)
	}
	for n := rng.Intn(3); drawn < n; drawn++ {
		f := drawFilter()
		if filter == nil {
			filter = &f
			c.desc += fmt.Sprintf("PP[%s>%v c=%.3f cached=%v] ", f.col, f.t, f.cost, f.cached)
		}
	}
	rowFilter := false
	// The row-local operators and the boundary after the source, in plan
	// order; live is which columns every row holds so far.
	type stepSpec struct {
		kind        string // "proc", "project", "select", "dedup"
		col         string
		cost, add   float64
		copies      int // a processor's rows per input: 0 one, 1 dropping, 2 duplicating, 3 zero, one or two
		faulty      bool
		consecutive int
		drop, from  string // a projection's dropped and renamed columns
		sel         query.Pred
	}
	var steps []stepSpec
	live := map[string]bool{}
	pick := func() string {
		var cols []string
		for col := range live {
			cols = append(cols, col)
		}
		if len(cols) == 0 {
			return ""
		}
		slices.Sort(cols)
		return cols[rng.Intn(len(cols))]
	}
	added := map[string]bool{} // columns added since the stage's base
	procs := rng.Intn(4)
	if rng.Intn(3) == 0 {
		procs += 1 + rng.Intn(3) // some of them after a boundary
	}
	dedupAt := -1
	if procs > 0 && rng.Intn(3) == 0 {
		dedupAt = rng.Intn(procs)
	}
	for k := 0; k < procs; k++ {
		if k == dedupAt {
			steps = append(steps, stepSpec{kind: "dedup"})
			c.desc += "Dedup "
			c.boundary = true
			clear(added)
		}
		p := stepSpec{kind: "proc", col: refCols[rng.Intn(3)], cost: 1 + float64(rng.Intn(20))/3, add: float64(k) / 2, copies: rng.Intn(4)}
		// A fault schedule counts attempts per blob. The rows one blob's
		// row becomes stay adjacent in one worker range, so they take their
		// attempts in the same order on both executors.
		p.faulty = rng.Intn(2) == 0
		p.consecutive = 1 + rng.Intn(3)
		steps = append(steps, p)
		c.desc += fmt.Sprintf("U[%s+%v c=%.3f copies=%d faulty=%v/%d] ", p.col, p.add, p.cost, p.copies, p.faulty, p.consecutive)
		c.shadow = c.shadow || added[p.col]
		live[p.col], added[p.col] = true, true
		switch rng.Intn(8) {
		case 0: // a projection: drop one column, rename another, compute p
			pr := stepSpec{kind: "project", drop: pick(), cost: 0.37}
			delete(live, pr.drop)
			if pr.from = pick(); pr.from != "" {
				delete(live, pr.from)
				live[pr.from+"r"] = true
			}
			live["p"] = true
			clear(added)
			steps = append(steps, pr)
			c.desc += fmt.Sprintf("π[-%s %s→%sr +p] ", pr.drop, pr.from, pr.from)
			c.project = true
		case 1: // the retired filter over rows
			drawFilter()
			rowFilter = true
		case 2: // a select mid-stage
			sel := query.MustParse(fmt.Sprintf("%s>=%d", pick(), rng.Intn(30)))
			steps = append(steps, stepSpec{kind: "select", sel: sel})
			c.desc += "σ[" + sel.String() + "] "
		}
	}
	selCol := pick()
	if selCol == "" {
		selCol = "x"
	}
	sel := query.MustParse(fmt.Sprintf("%s>=%d", selCol, rng.Intn(60)))
	c.desc += "σ[" + sel.String() + "]"
	c.retry = engine.RetryPolicy{
		MaxAttempts:   []int{0, 1, 3, 4, 4, 6}[rng.Intn(6)],
		BackoffBaseMS: []float64{0, 0.7, 3.3}[rng.Intn(3)],
		BackoffFactor: []float64{0, 1.5}[rng.Intn(2)],
	}
	if rng.Intn(2) == 0 {
		// From below the cheapest UDF (every attempt killed) to above a
		// straggler's tenfold duration.
		c.retry.RowTimeoutMS = []float64{0.9, 12, 30, 45, 90}[rng.Intn(5)]
	}
	faultSeed := rng.Uint64()
	c.build = func() engine.Plan {
		ops := []engine.Operator{&engine.Scan{Blobs: blobs}}
		if filter != nil {
			rf := refFilter{name: "f0", col: filter.col, t: filter.t, cost: filter.cost}
			if filter.cached {
				rf.memo = &sync.Map{}
			}
			ops = append(ops, &engine.PPFilter{F: rf})
		}
		for i, st := range steps {
			switch st.kind {
			case "dedup":
				ops = append(ops, &engine.GroupReduce{R: refDedup{}})
			case "project":
				pr := &engine.Project{Drop: []string{st.drop}, Compute: []engine.ComputedCol{{
					Name: "p", Cost: st.cost,
					Fn: func(r engine.Row) (query.Value, error) {
						if v, ok := r.Lookup("x"); ok {
							return query.Number(v.Num + 1), nil
						}
						return query.Number(float64(r.Blob.ID % 100)), nil
					},
				}}}
				if st.from != "" {
					pr.Rename = map[string]string{st.from: st.from + "r"}
				}
				ops = append(ops, pr)
			case "select":
				ops = append(ops, &engine.Select{Pred: st.sel})
			case "proc":
				u := colUDF{name: fmt.Sprintf("U%d_%s", i, st.col), col: st.col, add: st.add, cost: st.cost}
				switch st.copies {
				case 1:
					u.copies = func(b blob.Blob) int {
						if b.ID%5 == 0 {
							return 0
						}
						return 1
					}
				case 2:
					u.copies = func(b blob.Blob) int {
						if b.ID%3 == 0 {
							return 2
						}
						return 1
					}
				case 3:
					u.copies = func(b blob.Blob) int { return b.ID % 3 }
				}
				var proc engine.Processor = u
				if st.faulty {
					inj := fault.NewInjector(faultSeed + uint64(i))
					inj.SetDefault(fault.Spec{TransientRate: 0.10, StragglerRate: 0.05, StragglerFactor: 10, MaxConsecutive: st.consecutive})
					proc = udf.Faulty(u, inj)
				}
				ops = append(ops, &engine.Process{P: proc})
			}
		}
		return engine.Plan{Ops: append(ops, &engine.Select{Pred: sel})}
	}
	if drawn > 0 || rowFilter {
		rng.Intn(2) // the retired swap axis: drawn so that later plans stay the same
	}
	return c
}

// sameResult compares a run with its reference bit for bit: rows and their
// order, ClusterTime, Latency and stages, every PerOp field but WallNS.
func sameResult(got, want *engine.Result) error {
	if err := sameRows(got.Rows, want.Rows); err != nil {
		return err
	}
	if math.Float64bits(got.ClusterTime) != math.Float64bits(want.ClusterTime) ||
		math.Float64bits(got.Latency) != math.Float64bits(want.Latency) || got.Stages != want.Stages {
		return fmt.Errorf("cluster %v latency %v stages %d, reference %v %v %d",
			got.ClusterTime, got.Latency, got.Stages, want.ClusterTime, want.Latency, want.Stages)
	}
	if len(got.PerOp) != len(want.PerOp) {
		return fmt.Errorf("%d PerOp rows, reference %d", len(got.PerOp), len(want.PerOp))
	}
	for i := range got.PerOp {
		g, w := got.PerOp[i], want.PerOp[i]
		g.WallNS, w.WallNS = 0, 0
		if g != w {
			return fmt.Errorf("PerOp[%d] = %+v\nreference  %+v", i, g, w)
		}
	}
	return nil
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

// TestBatchExecutorMatchesRowReference draws random plans — Scan over 150
// to 3 500 blobs, zero or one PP filter (some behind a score memo; a third
// of the plans have one passing a count on or beside a morsel edge: 0, 1,
// 1 023, 1 024, 1 025, …), zero to six processors (column adders that
// keep, drop or double rows or emit zero, one or two rows per input, several
// adding one column with different values, half of them behind 10 %
// transient faults and 5 % stragglers, under a random retry policy and row
// timeout) interleaved with projections and selects, some of them after a
// stage boundary (a GroupReduce) whose rows carry their
// columns into the next row stage, and a select — and runs each once. The
// engine must match the row-at-a-time reference bit for bit: rows and
// their order, their columns with the newest of a name shadowing, ClusterTime
// and Latency, every PerOp field but WallNS; a failed run
// must fail with the same OpError stage, operator and text — the first
// failure in morsel order.
func TestBatchExecutorMatchesRowReference(t *testing.T) {
	rng := mathx.NewRNG(26)
	failures, faulted, multiMorsel := 0, 0, 0
	// Runs that succeeded with each of the draw's rarer shapes; a boundary
	// counts when its row stage took several morsels.
	covered := map[string]int{}
	const plans = 70
	for k := 0; k < plans; k++ {
		n := 150 + rng.Intn(300)
		if rng.Intn(2) == 0 {
			n = 1000 + rng.Intn(2500)
		}
		// Every third plan's first filter passes a count on or beside a
		// morsel edge, the edges taken in turn.
		edge := -1
		if k%3 == 0 {
			edge = refMorselEdges[k/3%len(refMorselEdges)]
			n = max(n, edge+rng.Intn(400))
		}
		blobs := refBlobs(n, rng, rng.Intn(4) == 0)
		c := drawRefCase(rng, blobs, edge)
		name := fmt.Sprintf("plan %d: %s retry=%+v", k, c.desc, c.retry)
		cfg := engine.Config{Retry: c.retry}
		want, werr := refRun(c.build(), cfg)
		got, gerr := engine.Run(c.build(), cfg)
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
		if err := sameResult(got, want); err != nil {
			t.Fatalf("%s\n%v", name, err)
		}
		for _, op := range got.PerOp {
			if op.Retries+op.Timeouts > 0 {
				faulted++
			}
		}
		// The row stage starts after the Scan and its filter.
		first := 1
		for first < len(got.PerOp) && got.PerOp[first].PPFilter {
			first++
		}
		if got.PerOp[first].RowsIn > refMorsel {
			multiMorsel++
		}
		for shape, ok := range map[string]bool{"project": c.project, "shadowed column": c.shadow} {
			if ok {
				covered[shape]++
			}
		}
		for _, op := range got.PerOp {
			if op.Name == "Dedup" && op.RowsOut > refMorsel {
				covered["boundary"]++
			}
		}
	}
	// The draw must have exercised what it claims to. Larger inputs meet
	// more holes and faults, so up to three runs in four may fail.
	runs := plans
	t.Logf("%d of %d runs failed; %d positions retried or timed out; %d runs took several morsels", failures, runs, faulted, multiMorsel)
	t.Logf("successful runs by shape: %v", covered)
	if failures == 0 || faulted == 0 || failures > runs*3/4 || multiMorsel == 0 {
		t.Fatalf("%d failed runs, %d faulted positions and %d multi-morsel runs over %d runs: the draw does not cover every path", failures, faulted, multiMorsel, runs)
	}
	for _, shape := range []string{"project", "shadowed column", "boundary"} {
		if covered[shape] == 0 {
			t.Fatalf("no successful run with a %s: the draw does not cover every path", shape)
		}
	}
}

// TestRowStageBuffersConcurrent runs different plans — the reference test's
// draw, over enough blobs for several morsels — as sessions on many
// goroutines at once, all through the row stage's shared buffer pool. Each
// result must equal the same plan's run alone, bit for bit, and a failing
// plan must fail alike: a buffer a run still reads must never reach another.
func TestRowStageBuffersConcurrent(t *testing.T) {
	type job struct {
		name    string
		run     func() (*engine.Result, error)
		want    *engine.Result
		wantErr error
	}
	rng := mathx.NewRNG(30)
	var jobs []job
	failing := 0
	for k := 0; k < 16; k++ {
		// Retries outlast every fault schedule, so only the plans over
		// blobs with holes may fail.
		blobs := refBlobs(1500+rng.Intn(2000), rng, k%4 == 3)
		edge := -1
		if k%2 == 0 {
			edge = refMorselEdges[rng.Intn(len(refMorselEdges))]
		}
		c := drawRefCase(rng, blobs, edge)
		retry := engine.RetryPolicy{MaxAttempts: 6, BackoffBaseMS: 0.7}
		j := job{name: fmt.Sprintf("plan %d: %s", k, c.desc)}
		j.run = func() (*engine.Result, error) {
			return engine.Run(c.build(), engine.Config{Retry: retry})
		}
		j.want, j.wantErr = j.run()
		jobs = append(jobs, j)
		if j.wantErr != nil {
			failing++
		}
	}
	t.Logf("%d of %d plans fail", failing, len(jobs))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range len(jobs) {
				j := jobs[(i+5*g)%len(jobs)]
				got, err := j.run()
				switch {
				case (err != nil) != (j.wantErr != nil):
					t.Errorf("%s\nerror %v, alone %v", j.name, err, j.wantErr)
				case err != nil:
					if err.Error() != j.wantErr.Error() {
						t.Errorf("%s\nerror %q, alone %q", j.name, err, j.wantErr)
					}
				default:
					if err := sameResult(got, j.want); err != nil {
						t.Errorf("%s\n%v", j.name, err)
					}
				}
			}
		}()
	}
	wg.Wait()
}
