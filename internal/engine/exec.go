package engine

import (
	"fmt"
	"time"

	"probpred/internal/blob"
	"probpred/internal/query"
)

// Plan is a linear chain of operators, source first.
type Plan struct{ Ops []Operator }

// InferencePlan builds the inference-query plan of Figures 1 and 2: scan the
// blobs, test them with the PP filter f (none when f is nil), run the UDF
// processors, then the query's predicate.
func InferencePlan(blobs []blob.Blob, f BlobFilter, procs []Processor, pred query.Pred) Plan {
	ops := make([]Operator, 0, len(procs)+3)
	ops = append(ops, &Scan{Blobs: blobs})
	if f != nil {
		ops = append(ops, &PPFilter{F: f})
	}
	for _, p := range procs {
		ops = append(ops, &Process{P: p})
	}
	return Plan{Ops: append(ops, &Select{Pred: pred})}
}

// The cluster the latency model charges: partitions is how many ways a
// stage's work divides, and stageOverheadMS the fixed virtual ms every
// serialized stage adds for job-wave scheduling, shuffle and
// materialization setup, and stragglers (~15 s, typical for a Cosmos-style
// batch stage). Data-parallel clusters pay it per stage regardless of stage
// size, which is why SortP's serialized predicate stages lose latency even
// while saving resources (§8.2).
const (
	partitions      = 16
	stageOverheadMS = 15000
)

// Config controls the execution environment model.
type Config struct {
	// Workers is kept only because the benchmark's workloads set it to 1.
	// Delete it when the benchmark's narrow seam (ROADMAP item 2) lands. A
	// run executes on its caller's goroutine (concurrency comes from
	// sessions), so Run accepts 0 and 1 and refuses any other value before
	// any work.
	Workers int
	// NoStageOverhead models an overhead-free substrate: stages add no
	// fixed latency.
	NoStageOverhead bool
	// Retry governs transient row-level UDF failures: attempt budget,
	// exponential backoff charged in virtual ms, and the per-attempt
	// timeout that turns stragglers into retries. The zero value disables
	// retries and timeouts.
	Retry RetryPolicy
}

// OpStats is one operator's accounting, keyed by plan position rather than
// name: two operators sharing a Name() (e.g. the same UDF applied twice)
// stay distinct.
type OpStats struct {
	// Name is the operator's display name (not necessarily unique).
	Name string
	// RowsIn / RowsOut are this operator's own cardinalities.
	RowsIn, RowsOut int
	// Cost is the virtual cost this operator alone charged.
	Cost float64
	// WallNS is the operator's real wall-clock duration, measured on every
	// run: EXPLAIN ANALYZE and the operator spans obs derives both read it.
	WallNS int64
	// StageBoundary mirrors the operator's StageBoundary() at execution
	// time, letting renderers regroup PerOp rows into stages.
	StageBoundary bool
	// PPFilter marks injected probabilistic-predicate filters, whose
	// rows-out/rows-in ratio is the observed PP pass rate.
	PPFilter bool
	// Retries / Timeouts count this operator's retried transient failures
	// and row-timeout kills.
	Retries, Timeouts int
	// CacheHits / CacheMisses count this operator's PP score-cache lookups
	// during THIS run only. The counters are tallied per Run invocation, not
	// on the (possibly shared) filter object, so concurrent sessions
	// executing the same compiled plan each see exactly their own lookups.
	// Both stay zero for filters without an attached score cache.
	CacheHits, CacheMisses uint64
}

// Result is the outcome of running a plan.
type Result struct {
	// Rows is the query output.
	Rows []Row
	// ClusterTime is total resource usage in virtual milliseconds.
	ClusterTime float64
	// Latency is the modeled end-to-end time in virtual milliseconds:
	// per-stage work divides across partitions and pipelines within a
	// stage, while stage boundaries serialize and add scheduling overhead.
	Latency float64
	// Stages is the number of pipeline stages in the plan.
	Stages int
	// PerOp is the run's one ledger: per-operator cardinalities, virtual
	// cost and wall time in plan position order. Its costs sum to ClusterTime.
	PerOp []OpStats
}

// Run executes the plan and returns rows plus cost accounting. The first
// operator must be a source (it receives a nil input batch). A run that
// fails after starting returns its partial Result beside the *OpError: PerOp
// holds the positions that executed (a prefix of the plan), each charged
// the work it did before the failure, and ClusterTime their sum; Rows,
// Latency and Stages stay zero. A plan refused before any work returns a nil
// Result.
//
// A Scan yields its blobs, which the PP filter directly after it, if any,
// tests in the source stage (source.go); any other source yields rows. A
// PPFilter anywhere else refuses the plan with a *MisplacedFilterError.
// After the source stage, each maximal run of row-local operators runs as a
// row stage (rowstage.go), which carries survivors a morsel at a time as
// positions and column vectors and makes rows only for what it emits, and
// every other operator sees every row at once through exec. The whole run
// stays on the caller's goroutine; a Config.Workers other than 0 or 1
// refuses the plan.
func Run(p Plan, cfg Config) (*Result, error) {
	if len(p.Ops) == 0 {
		return nil, fmt.Errorf("engine: empty plan")
	}
	if cfg.Workers != 0 && cfg.Workers != 1 {
		return nil, fmt.Errorf("engine: Workers = %d: a run executes on its caller's goroutine, so only 0 and 1 are accepted", cfg.Workers)
	}
	ops := p.Ops
	scan, scanned := ops[0].(*Scan)
	var f *PPFilter // the source stage's filter
	for i, op := range ops {
		if pf, ok := op.(*PPFilter); ok {
			if i != 1 || !scanned {
				return nil, &MisplacedFilterError{Pos: i, Op: op.Name()}
			}
			f = pf
		}
	}
	r := &run{cfg: cfg, ops: ops, accs: make([]opAcc, len(ops)), stageCosts: []float64{0}}

	var in rowInput
	var s *filterScratch
	first := 1
	if f != nil {
		first = 2
	}
	if scanned {
		n := len(scan.Blobs)
		r.charge(r.open(0), 0, n, scanCost*float64(n), 0)
		in, s = r.source(scan.Blobs, f)
	} else {
		rows, err := r.exec(0, nil)
		if err != nil {
			return r.result(), err
		}
		in.rows = rows
	}
	var rows []Row
	var err error
	for i := first; ; {
		j := i
		for j < len(ops) && rowLocal(ops[j]) {
			j++
		}
		// The row stage after the source stage runs even with no operator:
		// it is what makes the source's survivors into rows.
		if j > i || i == first {
			rows, err = r.rowStage(in, i, j)
			if s != nil {
				filterScratchPool.Put(s) // the rows no longer point into it
				s = nil
			}
			if err != nil {
				return r.result(), err
			}
		}
		if j == len(ops) {
			break
		}
		if rows, err = r.exec(j, rows); err != nil {
			return r.result(), err
		}
		in, i = rowInput{rows: rows}, j+1
	}

	overhead := float64(stageOverheadMS)
	if cfg.NoStageOverhead {
		overhead = 0
	}
	res := r.result()
	for _, c := range r.stageCosts {
		res.Latency += c/partitions + overhead
	}
	res.Rows, res.Stages = rows, len(r.stageCosts)
	return res, nil
}

// result is the run's ledger so far: a PerOp row for each position that
// executed, in plan order, and their summed cost.
func (r *run) result() *Result {
	res := &Result{ClusterTime: r.cluster, PerOp: make([]OpStats, 0, len(r.ops))}
	for i, op := range r.ops {
		acc := &r.accs[i]
		if !acc.ran {
			break
		}
		hits, misses := acc.ctally.Counts()
		res.PerOp = append(res.PerOp, OpStats{
			Name: op.Name(), RowsIn: acc.rowsIn, RowsOut: acc.rowsOut,
			Cost: acc.cost, WallNS: acc.wallNS,
			StageBoundary: op.StageBoundary(), PPFilter: isPPFilter(op),
			Retries: acc.tally.retries, Timeouts: acc.tally.timeouts,
			CacheHits: hits, CacheMisses: misses,
		})
	}
	return res
}

func isPPFilter(op Operator) bool {
	_, ok := op.(*PPFilter)
	return ok
}

// opAcc accumulates one plan position's accounting.
type opAcc struct {
	// ran marks positions that executed; only those are reported when a run
	// fails part-way.
	ran             bool
	rowsIn, rowsOut int
	cost            float64
	wallNS          int64
	tally           retryTally
	ctally          CacheTally
}

// run is one Run invocation's accounting.
type run struct {
	cfg  Config
	ops  []Operator
	accs []opAcc
	// cluster is ClusterTime: every operator execution's cost, in execution
	// order.
	cluster float64
	// stageCosts[i] accumulates the virtual cost of stage i.
	stageCosts []float64
}

// open starts ops[i]: a stage boundary opens a new stage.
func (r *run) open(i int) *opAcc {
	if r.ops[i].StageBoundary() {
		r.stageCosts = append(r.stageCosts, 0)
	}
	acc := &r.accs[i]
	acc.ran = true
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
// Scan, and every operator that is not row-local.
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
// already charged.
func (r *run) fail(i int, err error) error {
	return &OpError{Stage: len(r.stageCosts) - 1, Pos: i, Op: r.ops[i].Name(), Err: err}
}
