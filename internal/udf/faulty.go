package udf

import (
	"errors"
	"sync"

	"probpred/internal/engine"
	"probpred/internal/fault"
)

// FaultyProcessor wraps any engine.Processor with injector-driven transient
// failures and stragglers, without touching the wrapped UDF's logic. It
// implements engine.TimedProcessor so that straggling attempts report their
// inflated virtual duration, which the engine's per-row timeout budget can
// then convert into a retry.
//
// Attempt numbers are tracked per blob: each time a row of the same blob is
// run (i.e. each engine retry) the attempt advances, and the injector's
// decisions are a pure function of (operator, blob, attempt) — so outcomes
// are identical whether the engine runs sequentially or chunked across
// workers, and whatever the batches. A batch runs its healthy rows through
// the wrapped UDF in one call and ends at the first unhealthy attempt, which
// runs alone (the engine.TimedProcessor contract). A wrapper instance
// accumulates attempt state across one engine.Run; call Reset (or build
// fresh wrappers) before reusing it for another run.
type FaultyProcessor struct {
	P   engine.Processor
	Inj *fault.Injector

	mu       sync.Mutex
	attempts map[int]int
}

// Faulty wraps p with the injector's fault model.
func Faulty(p engine.Processor, inj *fault.Injector) *FaultyProcessor {
	return &FaultyProcessor{P: p, Inj: inj, attempts: map[int]int{}}
}

// Name implements engine.Processor, passing the wrapped name through so
// fault specs and cost accounting address the real UDF.
func (f *FaultyProcessor) Name() string { return f.P.Name() }

// Cost implements engine.Processor: the nominal (healthy-attempt) cost.
func (f *FaultyProcessor) Cost() float64 { return f.P.Cost() }

// Apply implements engine.Processor.
func (f *FaultyProcessor) Apply(b engine.Batch) error {
	_, err := f.ApplyTimed(b, nil)
	return err
}

// ApplyTimed implements engine.TimedProcessor. It consults the injector for
// each row's next attempt in order — deciding the first row's, and only
// peeking at a later row's so that an unhealthy one is left, undecided, to
// start the next batch — then runs the rows through the wrapped UDF: the
// healthy ones in one call at the nominal duration, or the unhealthy first
// row alone, failing transiently or at its inflated duration as decided.
func (f *FaultyProcessor) ApplyTimed(b engine.Batch, elapsed []float64) ([]float64, error) {
	if b.Len() == 0 {
		return elapsed, nil
	}
	name, cost := f.Name(), f.P.Cost()
	f.mu.Lock()
	if f.attempts == nil {
		f.attempts = map[int]int{}
	}
	first := b.Blob(0).ID
	f.attempts[first]++
	o := f.Inj.Decide(name, first, f.attempts[first])
	n := 1
	for o.Healthy() && n < b.Len() {
		id := b.Blob(n).ID
		if !f.Inj.Peek(name, id, f.attempts[id]+1).Healthy() {
			break
		}
		f.attempts[id]++ // a healthy outcome counts nothing, so no Decide
		n++
	}
	attempt := f.attempts[first]
	f.mu.Unlock()

	if o.Fail {
		return append(elapsed, cost*o.SlowFactor), &engine.RowError{
			Index: 0, Err: &fault.TransientError{Op: name, BlobID: first, Attempt: attempt},
		}
	}
	err := f.P.Apply(b.Slice(0, n))
	ran := n
	if err != nil {
		// The wrapped UDF failed at one row: the rows after it were not
		// attempted after all.
		var re *engine.RowError
		ran = 1
		if errors.As(err, &re) && re.Index >= 0 && re.Index < n {
			ran = re.Index + 1
		} else {
			err = &engine.RowError{Index: 0, Err: err}
		}
		f.mu.Lock()
		for i := ran; i < n; i++ {
			f.attempts[b.Blob(i).ID]--
		}
		f.mu.Unlock()
	}
	for j := 0; j < ran; j++ {
		elapsed = append(elapsed, cost*o.SlowFactor)
	}
	return elapsed, err
}

// Reset clears the per-blob attempt state so the wrapper replays the same
// fault schedule on a fresh engine.Run.
func (f *FaultyProcessor) Reset() {
	f.mu.Lock()
	f.attempts = map[int]int{}
	f.mu.Unlock()
}

// Attempts reports how many attempts the blob has consumed so far.
func (f *FaultyProcessor) Attempts(blobID int) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.attempts[blobID]
}

// FaultyPipeline wraps every processor of a chain with the same injector —
// the one-call way to make a whole simulated UDF pipeline flaky.
func FaultyPipeline(procs []engine.Processor, inj *fault.Injector) []engine.Processor {
	out := make([]engine.Processor, len(procs))
	for i, p := range procs {
		out[i] = Faulty(p, inj)
	}
	return out
}
