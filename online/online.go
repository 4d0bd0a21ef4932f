// Package online exposes the paper's online context (§4, Figure 3b) as
// public API: at cold start queries run unmodified while their UDF outputs
// label raw blobs; once enough labels accumulate, PPs train themselves and
// subsequent decisions inject them; executed runs feed the dependence
// tracking of Appendix A.5.
//
// Typical use:
//
//	sys, _ := online.New(online.Config{Clauses: []string{"t=SUV", "c=red"}})
//	// Per unmodified query run, label blobs from the UDF outputs:
//	for _, row := range results { sys.Observe(row.Blob, row.Lookup) }
//	// Per query, once warm:
//	dec, _ := sys.Decide(pred, 0.95, udfCost)
//	// After executing an injected plan:
//	sys.ReportRun(dec, observedReduction)
//
// An accuracy watchdog guards against silent PP degradation (input drift,
// stale classifiers): report each injected run's realized accuracy and the
// system trips a per-clause circuit breaker after K consecutive misses —
// the PP leaves the corpus, queries fall back to the always-correct
// unmodified plan, and the clause retrains on fresh labels before re-entering
// on probation:
//
//	sys.ReportAccuracy(dec, observedAccuracy, 0.95)
//	if sys.Breaker("t=SUV") == online.BreakerOpen {
//	    // running unmodified; a retrained PP must pass probation first
//	}
package online

import "probpred/internal/online"

// Config shapes the online system: the simple clauses to maintain PPs for,
// label-count thresholds for first training and retraining, the sliding
// buffer size, PP training settings, wrangler domains, and the accuracy
// watchdog.
type Config = online.Config

// WatchdogConfig shapes the per-clause accuracy circuit breaker: K
// consecutive below-target runs trip it, Margin is the tolerated slack, and
// FreshLabels gates retraining after a trip.
type WatchdogConfig = online.WatchdogConfig

// BreakerState is the watchdog's per-clause circuit state.
type BreakerState = online.BreakerState

// Breaker states: closed (serving normally), open (tripped; NoP fallback,
// awaiting retraining) and probation (retrained, one passing run from
// closing).
const (
	BreakerClosed    = online.BreakerClosed
	BreakerOpen      = online.BreakerOpen
	BreakerProbation = online.BreakerProbation
)

// System manages label collection, (re)training, decisions and the
// accuracy watchdog.
type System = online.System

// New builds an online system for the given simple clauses.
func New(cfg Config) (*System, error) { return online.New(cfg) }
