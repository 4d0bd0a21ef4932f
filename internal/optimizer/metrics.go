package optimizer

import (
	"probpred/internal/metrics"
	"probpred/internal/obs"
)

// Numeric telemetry for the optimizer. The registry lives on the Optimizer
// (SetMetrics) rather than on Options because the runtime feedback path —
// ObserveRuntime — takes no options: drift between estimated and observed
// reduction must be reportable from the same place dependence flagging
// happens. A nil registry disables everything at one pointer check.

// SetMetrics attaches a metrics registry to the optimizer. Optimize records
// search counters and ObserveRuntime records estimated-vs-observed reduction
// gauges plus misestimation counts. Nil detaches.
func (o *Optimizer) SetMetrics(reg *metrics.Registry) { o.metrics = reg }

// SetObs attaches a tracer used by the runtime feedback path (ObserveRuntime
// misestimation events). Optimize keeps taking its tracer via Options.Obs.
func (o *Optimizer) SetObs(tr *obs.Tracer) { o.tr = tr }

// Instrument resolves per-clause score instrumentation for a compiled filter:
// each PP leaf gets a score-distribution histogram and tested/passed counters
// labeled by clause. Instrumentation is opt-in per filter — an uninstrumented
// Compiled pays nothing on the batch hot path beyond one nil check per leaf
// batch — and instruments are resolved here, once, never during scoring.
// A nil registry detaches: the nil-registry lookups yield nil handles.
func (c *Compiled) Instrument(reg *metrics.Registry) {
	if c == nil {
		return
	}
	instrumentNode(c.node, reg)
}

func instrumentNode(n compiledNode, reg *metrics.Registry) {
	switch v := n.(type) {
	case *compiledLeaf:
		lbl := metrics.L("clause", v.pp.Clause)
		v.scoreHist = reg.Histogram("pp_clause_score", "PP score distribution per clause.", lbl)
		v.tested = reg.Counter("pp_clause_tested_total", "Blobs scored per PP clause.", lbl)
		v.passed = reg.Counter("pp_clause_passed_total", "Blobs whose score cleared the clause threshold.", lbl)
	case *compiledConj:
		for _, k := range v.kids {
			instrumentNode(k, reg)
		}
	case *compiledDisj:
		for _, k := range v.kids {
			instrumentNode(k, reg)
		}
	}
}
