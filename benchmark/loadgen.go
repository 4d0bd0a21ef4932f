package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"probpred/internal/mathx"
)

// opRecord is one operation as the load generator saw it. Offsets are from
// the phase start.
type opRecord struct {
	// index is the operation's position in the run's request stream.
	index int
	// due is when the schedule wanted the operation sent (open loop); closed
	// loops have due == sent.
	due, sent, done time.Duration
	// ok is false when the operation failed or its output missed the oracle.
	ok bool
	// detail is filled only in the traced pass.
	detail *opDetail
}

// latency is what the caller waited: open loops are timed from the due
// time, so a stall charges every request it delays, not just the one that
// hit it.
func (r *opRecord) latency() time.Duration { return r.done - r.due }

// poissonSchedule returns the arrival offsets of a Poisson process over d,
// conditioned on its count being exactly rate*d: that many independent
// uniform offsets, sorted. Every seed offers the same load with Poisson
// burstiness; an unconditioned draw would let the realised rate differ by
// several percent between seeds, and latency at a fixed rate would not be
// comparable across them. The schedule is a pure function of its arguments
// and is fixed before the first dispatch: nothing about execution can feed
// back into it.
func poissonSchedule(seed uint64, rate float64, d time.Duration) []time.Duration {
	rng := mathx.NewRNG(seed ^ 0x5c4ed)
	out := make([]time.Duration, int(rate*d.Seconds()))
	for i := range out {
		out[i] = time.Duration(rng.Float64() * float64(d))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// fixedSchedule returns arrivals every 1/rate seconds over d, first at 0.
func fixedSchedule(rate float64, d time.Duration) []time.Duration {
	n := int(rate * d.Seconds())
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return out
}

// openLoop dispatches one operation per schedule entry at its due time, each
// in its own goroutine, so a slow or parked completion never delays a later
// arrival. first is the request-stream index of the first operation. It
// returns the records in schedule order and, per dispatch, how many earlier
// operations were still in flight (the backlog).
func openLoop(sched []time.Duration, first int, do func(g int, r *opRecord)) (recs []opRecord, backlog []int) {
	recs = make([]opRecord, len(sched))
	backlog = make([]int, len(sched))
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for i, at := range sched {
		if d := time.Until(start.Add(at)); d > 0 {
			time.Sleep(d)
		}
		backlog[i] = int(inflight.Add(1)) - 1
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := &recs[i]
			r.index, r.due = first+i, sched[i]
			r.sent = time.Since(start)
			do(r.index, r)
			r.done = time.Since(start)
			inflight.Add(-1)
		}(i)
	}
	wg.Wait()
	return recs, backlog
}

// closedLoop runs n clients for d; each sends its next operation only after
// its previous one returned. Operations take consecutive request-stream
// indices from first and stop at limit (exclusive; 0 = no limit). Records
// come back ordered by completion time.
func closedLoop(n int, d time.Duration, first, limit int, do func(g int, r *opRecord)) []opRecord {
	var next atomic.Int64
	per := make([][]opRecord, n)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < d {
				g := first + int(next.Add(1)) - 1
				if limit > 0 && g >= limit {
					return
				}
				r := opRecord{index: g}
				r.sent = time.Since(start)
				r.due = r.sent
				do(g, &r)
				r.done = time.Since(start)
				per[c] = append(per[c], r)
			}
		}(c)
	}
	wg.Wait()
	var recs []opRecord
	for _, p := range per {
		recs = append(recs, p...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].done < recs[j].done })
	return recs
}

// backlogGrowing reports whether an open-loop phase ended with its queue
// still building: the mean backlog over the last quarter of dispatches
// exceeds twice the first half's plus two operations. A sustainable rate
// keeps the backlog flat; above it the backlog grows for as long as the
// phase lasts, and every latency read from it depends on the phase length.
func backlogGrowing(backlog []int) bool {
	n := len(backlog)
	if n < 8 {
		return false
	}
	mean := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	return mean(backlog[n-n/4:]) > 2*mean(backlog[:n/2])+2
}
