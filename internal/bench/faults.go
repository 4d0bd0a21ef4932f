package bench

import (
	"fmt"
	"slices"

	"probpred/internal/core"
	"probpred/internal/data"
	"probpred/internal/engine"
	"probpred/internal/fault"
	"probpred/internal/online"
	"probpred/internal/optimizer"
	"probpred/internal/query"
	"probpred/internal/udf"
)

// Faults is an extension experiment beyond the paper: the paper's safety
// argument (§1, §3) is that PPs never add false positives because the full
// plan still runs downstream — but a production Cosmos/SCOPE-style substrate
// also sees UDF task failures, stragglers, and PPs whose accuracy silently
// drifts. This experiment proves the reproduction degrades gracefully on
// both axes:
//
//  1. Fault sweep: transient faults and stragglers are injected into every
//     UDF of PP-accelerated TRAF queries at increasing rates, with engine
//     retries/backoff/timeouts enabled. Outputs must stay byte-identical to
//     the fault-free run (the injector is deterministic and transient bursts
//     are bounded below the attempt budget), while the retry work shows up
//     as cluster-time overhead — speed-up erodes smoothly, never cliffs, and
//     never costs correctness.
//
//  2. Accuracy watchdog: a PP trained on the prefix of a drifting stream
//     serves windows whose realized accuracy decays; the online watchdog
//     trips its circuit breaker after K consecutive misses, queries fall
//     back to the unmodified NoP plan (zero lost true positives by
//     construction), the clause retrains on fresh labels, and the PP
//     re-enters through probation.
func Faults(cfg Config) (*Report, error) {
	rep := &Report{ID: "faults",
		Title: "Fault tolerance: retries under UDF fault injection + PP accuracy watchdog under drift"}
	if err := faultSweep(cfg, rep); err != nil {
		return nil, err
	}
	rep.addf("")
	if err := watchdogDemo(cfg, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// sweepRetry is the policy the sweep runs under: the attempt budget exceeds
// the injector's transient burst cap, so every injected fault is absorbed.
var sweepRetry = engine.RetryPolicy{
	MaxAttempts:   6,
	BackoffBaseMS: 20,
	BackoffFactor: 2,
	RowTimeoutMS:  250,
}

// faultSweep injects faults at increasing rates into PP-accelerated queries
// and reports correctness and retained speed-up per rate.
func faultSweep(cfg Config, rep *Report) error {
	h, err := NewTrafficHarnessWithCorpus(cfg, optimizer.NewCorpus())
	if err != nil {
		return err
	}
	clauses := []string{"t=SUV", "c=red", "s>60"}
	for i, clause := range clauses {
		pp, err := h.TrainPP(clause, uint64(100+i))
		if err != nil {
			return err
		}
		h.Opt.Corpus().Add(pp)
	}
	queries := []struct {
		id   string
		pred string
	}{
		{"Q1", "t=SUV"},
		{"Q18", "t=SUV & c=red & s>60"},
	}
	rates := []float64{0, 0.01, 0.05, 0.10}
	rep.addf("-- fault sweep: transient+straggler injection into every UDF, retries on --")
	rep.addf("   (retry policy: %d attempts, %vms base backoff, %vms row timeout)",
		sweepRetry.MaxAttempts, sweepRetry.BackoffBaseMS, sweepRetry.RowTimeoutMS)
	tb := &table{header: []string{"query", "fault rate", "output", "speed-up vs NoP", "retry overhead"}}
	for _, q := range queries {
		pred := query.MustParse(q.pred)
		nopPlan, _, err := h.NoPPlan(pred)
		if err != nil {
			return err
		}
		nop, err := engine.Run(nopPlan, engine.Config{})
		if err != nil {
			return err
		}
		var clean *engine.Result
		for ri, rate := range rates {
			var inj *fault.Injector
			if rate > 0 {
				inj = fault.NewInjector(cfg.Seed ^ uint64(ri)*0xfa17)
				inj.SetDefault(fault.Spec{
					TransientRate:   rate,
					StragglerRate:   rate / 5,
					StragglerFactor: 10,
					MaxConsecutive:  3,
				})
			}
			plan, dec, err := faultyPPPlan(h, pred, inj)
			if err != nil {
				return err
			}
			if !dec.Inject {
				return fmt.Errorf("bench: faults: %s did not inject a PP", q.id)
			}
			res, err := engine.Run(plan, engine.Config{Retry: sweepRetry})
			if err != nil {
				return fmt.Errorf("bench: faults: %s at rate %v: %w", q.id, rate, err)
			}
			if rate == 0 {
				clean = res
				tb.add(q.id, "0% (ref)", "reference", f2(nop.ClusterTime/res.ClusterTime)+"x", "-")
				continue
			}
			output := "IDENTICAL"
			if !rowsIdentical(clean.Rows, res.Rows) {
				output = "DIVERGED"
			}
			overhead := (res.ClusterTime - clean.ClusterTime) / clean.ClusterTime
			tb.add(q.id, fmt.Sprintf("%.0f%%", rate*100), output,
				f2(nop.ClusterTime/res.ClusterTime)+"x", fmt.Sprintf("+%.1f%%", overhead*100))
		}
	}
	rep.Lines = append(rep.Lines, tb.render()...)

	// Without retries, the same 10% injection kills the query outright —
	// the failure is at least attributed to its operator and stage.
	inj := fault.NewInjector(cfg.Seed ^ 3*0xfa17)
	inj.SetDefault(fault.Spec{TransientRate: 0.10, MaxConsecutive: 3})
	pred := query.MustParse("t=SUV")
	plan, _, err := faultyPPPlan(h, pred, inj)
	if err != nil {
		return err
	}
	if _, err := engine.Run(plan, engine.Config{}); err != nil {
		rep.addf("without retries, 10%% injection fails fast: %v", err)
	} else {
		rep.addf("without retries, 10%% injection unexpectedly succeeded")
	}
	return nil
}

// faultyPPPlan is PPPlan with the UDF pipeline optionally wrapped in the
// injector's fault model.
func faultyPPPlan(h *TrafficHarness, pred query.Pred, inj *fault.Injector) (engine.Plan, *optimizer.Decision, error) {
	procs, err := udf.TrafficPipeline(pred, 0, h.seed)
	if err != nil {
		return engine.Plan{}, nil, err
	}
	u := udf.PipelineCost(procs)
	dec, err := h.Opt.Optimize(pred, optimizer.Options{
		Accuracy: 0.95,
		UDFCost:  u,
		Domains:  data.TrafficDomains(),
	})
	if err != nil {
		return engine.Plan{}, nil, err
	}
	if inj != nil {
		procs = udf.FaultyPipeline(procs, inj)
	}
	ops := []engine.Operator{&engine.Scan{Blobs: h.TestBlobs}}
	if dec.Inject {
		ops = append(ops, &engine.PPFilter{F: dec.Filter})
	}
	for _, p := range procs {
		ops = append(ops, &engine.Process{P: p})
	}
	ops = append(ops, &engine.Select{Pred: pred})
	return engine.Plan{Ops: ops}, dec, nil
}

// rowsIdentical reports whether two result sets match row for row: same
// order, same blobs, same materialized column values.
func rowsIdentical(a, b []engine.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Blob.ID != b[i].Blob.ID || !slices.Equal(a[i].Columns(), b[i].Columns()) {
			return false
		}
	}
	return true
}

// watchdogDemo runs the accuracy watchdog over a drifting stream: stale PP
// accuracy decays, the breaker trips, queries fall back (losing nothing),
// the clause retrains on fresh labels and re-enters through probation.
func watchdogDemo(cfg Config, rep *Report) error {
	const (
		clause = "t=SUV"
		target = 0.95
	)
	rows := cfg.scale(24000, 8000)
	stream := data.Traffic(data.TrafficConfig{Rows: rows, Seed: cfg.Seed ^ 0xdead, Drift: 1.0})
	pred := query.MustParse(clause)
	procs, err := udf.TrafficPipeline(pred, 0, cfg.Seed)
	if err != nil {
		return err
	}
	u := udf.PipelineCost(procs)
	prefix := rows / 6
	windows := 8
	windowSize := (rows - prefix) / windows
	sys, err := online.New(online.Config{
		Clauses:      []string{clause},
		MinLabels:    rows / 24,
		RetrainEvery: rows * 10, // only the watchdog triggers retraining here
		BufferCap:    rows / 8,  // sliding buffer keeps retraining data fresh
		Train:        core.TrainConfig{Approach: "Raw+SVM", SVM: svmConfigForTraffic(), Seed: cfg.Seed},
		Domains:      data.TrafficDomains(),
		Seed:         cfg.Seed,
		// FreshLabels spans more than one window, so a trip yields at least
		// one visible NoP-fallback window before retraining completes; the
		// margin tolerates the residual one-window drift lag a freshly
		// retrained PP cannot avoid.
		Watchdog: online.WatchdogConfig{K: 2, Margin: 0.03, FreshLabels: windowSize * 3 / 2},
	})
	if err != nil {
		return err
	}
	for _, b := range stream[:prefix] {
		if err := sys.Observe(b, data.TrafficLookup(b)); err != nil {
			return err
		}
	}
	rep.addf("-- accuracy watchdog under input drift (clause %s, target a=%.2f, K=2) --", clause, target)
	tb := &table{header: []string{"window", "mode", "observed acc", "lost positives", "breaker after"}}
	trips, reenabled := 0, false
	for w := 0; w < windows; w++ {
		lo := prefix + w*windowSize
		window := stream[lo : lo+windowSize]
		set, err := data.TrafficSet(window, pred)
		if err != nil {
			return err
		}
		dec, err := sys.Decide(pred, target, u)
		if err != nil {
			return err
		}
		mode, acc, lost := "NoP fallback", 1.0, 0
		if dec.Inject {
			mode = "PP injected"
			posPass, pos := 0, 0
			for i, b := range set.Blobs {
				if !set.Labels[i] {
					continue
				}
				pos++
				if pass, _ := dec.Filter.Test(b); pass {
					posPass++
				}
			}
			if pos > 0 {
				acc = float64(posPass) / float64(pos)
			}
			lost = pos - posPass
		}
		tripsBefore := sys.Trips
		stateBefore := sys.Breaker(clause)
		sys.ReportAccuracy(dec, acc, target)
		if sys.Trips > tripsBefore {
			trips = sys.Trips
		}
		// The window's UDF outputs label its blobs either way (Figure 3b);
		// after a trip these are the fresh labels retraining waits for.
		for _, b := range window {
			if err := sys.Observe(b, data.TrafficLookup(b)); err != nil {
				return err
			}
		}
		after := sys.Breaker(clause)
		if stateBefore != online.BreakerClosed && after == online.BreakerClosed {
			reenabled = true
		}
		tb.add(fmt.Sprintf("%d", w+1), mode, f3(acc), fmt.Sprintf("%d", lost), after.String())
	}
	rep.Lines = append(rep.Lines, tb.render()...)
	rep.addf("trips=%d retrainings=%d re-enabled=%v (fallback windows lose zero true positives by construction)",
		trips, sys.Trainings-1, reenabled)
	return nil
}
