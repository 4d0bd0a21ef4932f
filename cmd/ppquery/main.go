// Command ppquery runs an ad-hoc predicate over the synthetic traffic
// surveillance stream with and without probabilistic predicates and reports
// cluster time, latency, speed-up and accuracy — a small interactive version
// of the §8.2 experiments.
//
// Usage:
//
//	ppquery [-pred "t=SUV & c=red"] [-accuracy 0.95] [-rows 20000] [-seed N] [-explain]
//	        [-trace] [-querylog file.jsonl]
//
// -explain prints the candidate PP expressions and an EXPLAIN ANALYZE tree
// for the executed PP plan: per-operator estimated vs actual rows, virtual
// cost, wall time, PP pass rates, and MISESTIMATE flags where the actuals
// fell outside tolerance.
//
// -trace streams the observability layer's records to stderr: one span per
// engine run and per operator (wall-clock + virtual cost + cardinalities),
// derived from each run's Result.PerOp, and the plan-search span with its
// counters, derived from the decision's Search ledger. Independent of
// -trace, a flight recorder buffers the most recent records and dumps them
// to stderr automatically if a run fails.
//
// Every invocation runs under one trace ID (printed alongside the predicate);
// all spans the run emits share it. -querylog appends a structured pplog
// record for the PP run to the given JSONL file.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"probpred/internal/bench"
	"probpred/internal/engine"
	"probpred/internal/obs"
	"probpred/internal/optimizer"
	"probpred/internal/pplog"
	"probpred/internal/query"
)

type options struct {
	predStr    string
	accuracy   float64
	rows       int
	seed       uint64
	explain    bool
	corpusFile string
	trace      bool
	queryLog   string
}

func main() {
	var o options
	flag.StringVar(&o.predStr, "pred", "t=SUV & c=red", "query predicate over columns t,c,s,i,o")
	flag.Float64Var(&o.accuracy, "accuracy", 0.95, "query-wide accuracy target in (0,1]")
	flag.IntVar(&o.rows, "rows", 20000, "test stream size")
	flag.Uint64Var(&o.seed, "seed", 42, "stream + training seed")
	flag.BoolVar(&o.explain, "explain", false, "print candidate PP expressions and the EXPLAIN ANALYZE tree")
	flag.StringVar(&o.corpusFile, "corpus", "", "load the PP corpus from this file if it exists; otherwise train and save it")
	flag.BoolVar(&o.trace, "trace", false, "stream execution + optimizer spans to stderr")
	flag.StringVar(&o.queryLog, "querylog", "", "append a structured pplog record for the PP run to this JSONL file")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "ppquery:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	pred, err := query.Parse(o.predStr)
	if err != nil {
		return err
	}
	tctx := obs.TraceContext{TraceID: obs.NewTraceID()}
	fmt.Printf("predicate: %s  (accuracy target %.2f, trace %s)\n", pred, o.accuracy, tctx.TraceID)

	// The flight recorder rides along unconditionally: it buffers the most
	// recent spans/events and dumps them to stderr when a run fails.
	sinks := []obs.Sink{obs.NewFlightRecorder(256, os.Stderr)}
	if o.trace {
		sinks = append(sinks, obs.NewTextSink(os.Stderr))
	}
	tracer := obs.New(obs.Multi(sinks...))

	cfg := bench.Config{Seed: o.seed, Quick: o.rows <= 5000}
	h, err := loadOrTrainHarness(cfg, o.corpusFile)
	if err != nil {
		return err
	}
	if o.rows < len(h.TestBlobs) {
		h.TestBlobs = h.TestBlobs[:o.rows]
	}
	fmt.Printf("corpus: %d PPs trained in %s; stream: %d rows\n\n",
		h.Opt.Corpus().Size(), h.CorpusTrainTime.Round(1e6), len(h.TestBlobs))

	// Every span of the invocation is derived from a ledger once its work
	// returns: each run's from its Result (a failed run's partial one
	// included), the plan search's from the decision.
	nopPlan, u, err := h.NoPPlan(pred)
	if err != nil {
		return err
	}
	nopStart := time.Now()
	nop, err := engine.Run(nopPlan, engine.Config{})
	tracer.EmitRun(tctx, nopStart, nop, err)
	if err != nil {
		return err
	}
	ppPlan, dec, err := h.PPPlan(pred, o.accuracy)
	if err != nil {
		return err
	}
	tracer.EmitSearch(tctx, pred, dec)
	ppStart := time.Now()
	pp, err := engine.Run(ppPlan, engine.Config{})
	ppWall := time.Since(ppStart)
	tracer.EmitRun(tctx, ppStart, pp, err)
	if err != nil {
		return err
	}

	fmt.Printf("optimizer: %d candidate PP expressions, UDF cost u=%.0f vms/row\n", dec.NumCandidates, u)
	if dec.Inject {
		fmt.Printf("picked:    %s\n", dec.Expr)
		fmt.Printf("           est. reduction %.2f, PP cost %.2f vms/row, allocations: %s\n",
			dec.Reduction, dec.Cost, dec.LeafAccuracies)
	} else {
		fmt.Println("picked:    none — running the query as-is is cheapest")
	}
	if o.explain {
		for _, alt := range dec.Alternatives {
			fmt.Printf("  candidate: %-60s est r=%.2f plan=%.1f\n", alt.Expr, alt.Reduction, alt.PlanCost)
		}
	}

	// Feed the observed reduction back to the optimizer (A.5 drift loop); a
	// misestimation is an event under this invocation's trace.
	for _, op := range pp.PerOp {
		if op.PPFilter && op.RowsIn > 0 {
			observed := 1 - float64(op.RowsOut)/float64(op.RowsIn)
			if h.Opt.ObserveRuntime(dec, observed) {
				tracer.EmitMisestimation(tctx, dec, observed)
			}
		}
	}

	kept := map[int]bool{}
	for _, r := range pp.Rows {
		kept[r.Blob.ID] = true
	}
	retained := 0
	for _, r := range nop.Rows {
		if kept[r.Blob.ID] {
			retained++
		}
	}
	acc := 1.0
	if len(nop.Rows) > 0 {
		acc = float64(retained) / float64(len(nop.Rows))
	}
	if o.explain {
		est, eerr := estimateRows(h, ppPlan, dec, pred)
		if eerr != nil {
			return eerr
		}
		fmt.Println()
		fmt.Println("PP plan:")
		fmt.Println(pp.Analyze(engine.AnalyzeOptions{EstimatedRows: est}))
	}
	fmt.Println()
	fmt.Printf("%-8s %14s %14s %8s\n", "plan", "cluster (vms)", "latency (vms)", "rows")
	fmt.Printf("%-8s %14.0f %14.0f %8d\n", "NoP", nop.ClusterTime, nop.Latency, len(nop.Rows))
	fmt.Printf("%-8s %14.0f %14.0f %8d\n", "PP", pp.ClusterTime, pp.Latency, len(pp.Rows))
	fmt.Printf("\nspeed-up: %.2fx cluster time, %.2fx latency; accuracy: %.3f\n",
		nop.ClusterTime/pp.ClusterTime, nop.Latency/pp.Latency, acc)

	if o.queryLog != "" {
		rec := pplog.Record{
			TimeUnixNS: time.Now().UnixNano(),
			TraceID:    tctx.TraceID,
			Session:    "ppquery",
			PlanKey:    optimizer.PlanKey(pred, o.accuracy),
			Accuracy:   o.accuracy,
			ServiceNS:  ppWall.Nanoseconds(),
			Rows:       len(pp.Rows),
			ClusterVMS: pp.ClusterTime,
		}
		for _, op := range pp.PerOp {
			if op.PPFilter {
				rec.PPTested += op.RowsIn
				rec.PPPassed += op.RowsOut
			}
		}
		if rec.PPTested > 0 {
			rec.ObsReduction = 1 - float64(rec.PPPassed)/float64(rec.PPTested)
		}
		if dec.Inject {
			rec.EstReduction = dec.Reduction
		}
		if err := appendQueryLog(o.queryLog, rec); err != nil {
			return err
		}
		fmt.Printf("query-log record appended to %s\n", o.queryLog)
	}
	return nil
}

// appendQueryLog appends one record to the JSONL query log at path through a
// pplog.Writer (same format as the serving layer's log).
func appendQueryLog(path string, rec pplog.Record) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := pplog.NewWriter(f, 1, nil)
	w.Log(rec)
	err = w.Close()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// estimateRows builds the planner's estimated output cardinality for each
// operator of the PP plan: the scan emits the whole stream, an injected PP
// filter keeps (1−reduction) of it, UDF processors pass rows through, and
// the final σ keeps the predicate's training-prefix selectivity share of the
// stream. Unknown operator types carry the running estimate forward.
func estimateRows(h *bench.TrafficHarness, p engine.Plan, dec *optimizer.Decision, pred query.Pred) ([]float64, error) {
	sel, err := h.Selectivity(pred)
	if err != nil {
		return nil, err
	}
	n := float64(len(h.TestBlobs))
	cur := n
	est := make([]float64, 0, len(p.Ops))
	for _, op := range p.Ops {
		switch op.(type) {
		case *engine.Scan:
			cur = n
		case *engine.PPFilter:
			cur *= 1 - dec.Reduction
		case *engine.Select:
			// Selectivity is measured over the full stream; the σ's output
			// cannot exceed what reached it.
			if s := n * sel; s < cur {
				cur = s
			}
		}
		est = append(est, cur)
	}
	return est, nil
}

// loadOrTrainHarness builds the harness, reusing a previously saved corpus
// when corpusFile exists (train once, query forever).
func loadOrTrainHarness(cfg bench.Config, corpusFile string) (*bench.TrafficHarness, error) {
	if corpusFile != "" {
		if f, err := os.Open(corpusFile); err == nil {
			defer f.Close()
			corpus, err := optimizer.LoadCorpus(f)
			if err != nil {
				return nil, err
			}
			fmt.Printf("loaded %d-PP corpus from %s\n", corpus.Size(), corpusFile)
			h, err := bench.NewTrafficHarnessWithCorpus(cfg, corpus)
			if err != nil {
				return nil, err
			}
			return h, nil
		}
	}
	fmt.Println("training 32-PP corpus on the stream prefix...")
	h, err := bench.NewTrafficHarness(cfg)
	if err != nil {
		return nil, err
	}
	if corpusFile != "" {
		f, err := os.Create(corpusFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := h.Opt.Corpus().Save(f); err != nil {
			return nil, err
		}
		fmt.Printf("saved corpus to %s\n", corpusFile)
	}
	return h, nil
}
