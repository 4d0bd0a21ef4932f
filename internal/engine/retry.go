package engine

import (
	"errors"
	"fmt"
	"math"
)

// RetryPolicy controls how the engine handles transient row-level UDF
// failures (Config.Retry). A data-parallel cluster restarts failed tasks
// rather than failing the job; the policy models that in virtual time: every
// attempt's work and every backoff wait are charged to the operator's virtual
// cost, so retries show up in ClusterTime and Latency. The zero value retries
// nothing (one attempt, no timeout), preserving the historical behaviour.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per row, including the
	// first. Zero or one disables retries.
	MaxAttempts int
	// BackoffBaseMS is the virtual backoff charged before the first retry.
	// Zero selects 50 when retries are enabled.
	BackoffBaseMS float64
	// BackoffFactor multiplies the backoff per additional retry
	// (exponential). Zero selects 2.
	BackoffFactor float64
	// RowTimeoutMS is the per-attempt virtual timeout budget: an attempt
	// whose virtual duration exceeds it is killed at the deadline and
	// treated as a transient failure (stragglers become retries rather than
	// unbounded latency). Zero disables the timeout.
	RowTimeoutMS float64
}

// attempts returns the effective attempt budget.
func (p RetryPolicy) attempts() int {
	if p.MaxAttempts <= 1 {
		return 1
	}
	return p.MaxAttempts
}

// backoff returns the virtual ms charged before retrying after the given
// 1-based failed attempt.
func (p RetryPolicy) backoff(attempt int) float64 {
	base := p.BackoffBaseMS
	if base == 0 {
		base = 50
	}
	factor := p.BackoffFactor
	if factor == 0 {
		factor = 2
	}
	return base * math.Pow(factor, float64(attempt-1))
}

// TimedProcessor is an optional Processor extension for processors whose
// per-attempt virtual duration varies from Cost() — e.g. fault-injected
// stragglers. ApplyTimed is Apply that also appends to elapsed one virtual
// duration in ms per row it ran, in row order, the failing row's included (a
// task can burn time and then die); the engine uses it in place of Apply, so
// straggler and row-timeout accounting stay per row. An unhealthy attempt —
// one that fails or runs longer than Cost() — runs alone: ApplyTimed returns
// before such a row unless it is the batch's first, and right after it when
// it is. That lets the engine kill a straggler at the row timeout, dropping
// its work, without touching the rows beside it.
type TimedProcessor interface {
	Processor
	ApplyTimed(b Batch, elapsed []float64) ([]float64, error)
}

// IsTransient reports whether any error in err's chain declares itself
// retryable via a `Transient() bool` method (e.g. fault.TransientError or
// the engine's own row timeouts).
func IsTransient(err error) bool {
	var t interface{ Transient() bool }
	return errors.As(err, &t) && t.Transient()
}

// rowTimeoutError is the engine-raised failure for an attempt that exceeded
// the policy's per-row virtual budget. It is transient: the next attempt may
// not straggle.
type rowTimeoutError struct {
	op              string
	elapsed, budget float64
}

func (e *rowTimeoutError) Error() string {
	return fmt.Sprintf("engine: %s row ran %.0f virtual ms, exceeding the %.0f ms budget",
		e.op, e.elapsed, e.budget)
}

func (e *rowTimeoutError) Transient() bool { return true }

// OpError attributes a run failure to the operator and pipeline stage it
// occurred in.
type OpError struct {
	// Stage is the zero-based pipeline stage index.
	Stage int
	// Pos is the failing operator's plan position: its row in the partial
	// Result's PerOp, which names alone cannot pick out.
	Pos int
	// Op is the failing operator's name.
	Op string
	// Err is the underlying failure.
	Err error
}

// Error implements error.
func (e *OpError) Error() string {
	return fmt.Sprintf("engine: stage %d, operator %s: %v", e.Stage, e.Op, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *OpError) Unwrap() error { return e.Err }

// rowError returns the *RowError in err's chain, or nil. It is a function of
// its own so that a batch without a failure does not allocate the target.
func rowError(err error) *RowError {
	var re *RowError
	errors.As(err, &re)
	return re
}

// retryTally accumulates one operator execution's retry activity. It is
// plumbed through the per-row retry loop as plain ints, so counting is free
// of atomics and allocations.
type retryTally struct {
	// retries is how many failed attempts were retried.
	retries int
	// timeouts is how many attempts were killed at the row-timeout deadline.
	timeouts int
}

func (t *retryTally) add(o retryTally) {
	t.retries += o.retries
	t.timeouts += o.timeouts
}

// apply drives a processor over one morsel under the retry policy, one call
// over every row still to go. A row that fails, or whose attempt the row
// timeout kills, ends the call: the rows before it are charged, it is
// re-driven alone until it succeeds or the policy gives up, and the next call
// starts after it. A row's work is its values at its positions and its
// Repeat count; a later attempt writes both afresh, so a failed or killed
// attempt leaves nothing behind. Each row is charged every attempt it made
// (successful, failed, or killed at the deadline) plus every backoff wait,
// added row by row in row order onto or.cost — the running sum the row stage
// threads from morsel to morsel, so a range's cost is the same additions, in
// the same order, as applying one row at a time, and virtual cost keeps its
// bits. A failing row still charges the work performed before and during the
// failure: a cluster bills for a task's work whether or not it succeeds.
// or.tally counts timeout kills and retried attempts (plain ints: each worker
// range owns its opRun).
func apply(p Processor, m *morsel, pol RetryPolicy, or *opRun) error {
	timed, _ := p.(TimedProcessor)
	nominal := p.Cost()
	// When a nominal attempt already overruns the timeout, every attempt is
	// killed: run the rows one at a time, as a killed attempt must.
	alone := pol.RowTimeoutMS > 0 && nominal > pol.RowTimeoutMS
	total, rowCost, attempt := or.cost, 0.0, 1
	for lo, n := 0, m.len(); lo < n; {
		b := Batch{m: m, lo: lo, hi: n}
		if alone || attempt > 1 {
			b.hi = lo + 1
		}
		if m.reps != nil {
			for k := b.lo; k < b.hi; k++ {
				m.reps[k] = 1
			}
		}
		var err error
		ran := b.Len() // rows the call ran, the failing one included
		if timed != nil {
			or.elapsed, err = timed.ApplyTimed(b, or.elapsed[:0])
			ran = len(or.elapsed)
		} else {
			err = p.Apply(b)
		}
		cause := err
		var re *RowError
		if err != nil {
			if re = rowError(err); re != nil {
				cause = re.Err
			}
		}
		if err != nil && timed == nil {
			ran = 1 // a failure that names no row of the batch blames the first
			if re != nil && re.Index >= 0 && re.Index < b.Len() {
				ran = re.Index + 1
			}
		}
		if ran < 1 || ran > b.Len() {
			or.cost = total
			return fmt.Errorf("processor %s: timed %d rows of a %d-row batch", p.Name(), ran, b.Len())
		}
		for j := 0; j < ran; j++ {
			e := nominal
			if timed != nil {
				e = or.elapsed[j]
			}
			var rowErr error
			if j == ran-1 {
				rowErr = cause
			}
			if pol.RowTimeoutMS > 0 && e > pol.RowTimeoutMS {
				if ran != 1 {
					or.cost = total
					return fmt.Errorf("processor %s: a straggling attempt did not run alone", p.Name())
				}
				// The runtime kills the attempt at the deadline: no result,
				// and only the budget's worth of time was spent.
				rowErr = &rowTimeoutError{op: p.Name(), elapsed: e, budget: pol.RowTimeoutMS}
				e = pol.RowTimeoutMS
				or.tally.timeouts++
			}
			rowCost += e
			if rowErr == nil {
				total += rowCost
				rowCost, attempt = 0, 1
				continue
			}
			if !IsTransient(rowErr) || attempt >= pol.attempts() {
				or.cost = total + rowCost
				return fmt.Errorf("processor %s: %w", p.Name(), rowErr)
			}
			or.tally.retries++
			rowCost += pol.backoff(attempt)
			attempt++
		}
		if attempt > 1 {
			ran-- // the failed row goes again, alone
		}
		lo += ran
	}
	or.cost = total
	return nil
}
