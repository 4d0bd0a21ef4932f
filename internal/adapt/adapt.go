// Package adapt is the mid-query re-optimization controller (ROADMAP item
// 3; Hydro-style adaptive query processing over the paper's PP plans). It
// wraps engine.RunAdaptive around a served plan: per chunk it compares each
// PP leaf's observed selectivity against the plan's estimate, and when the
// divergence exceeds a configured bound for enough consecutive chunks it
// re-enters the optimizer with the observed statistics, hot-swaps the
// remaining chunks onto the re-ordered (outcome-identical) filter, and
// demotes/promotes the serve layer's plan-cache entry so later sessions
// start on the corrected order.
//
// Degradation is graceful at every stage: a failed, erroring or
// over-budget re-plan leaves the current plan running and records the
// event; repeated re-plan failures trip a per-predicate circuit breaker
// (the shared internal/online breaker) that pins the plan entirely and
// retries with jittered backoff measured in adaptive runs.
package adapt

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"probpred/internal/engine"
	"probpred/internal/metrics"
	"probpred/internal/obs"
	"probpred/internal/online"
	"probpred/internal/optimizer"
)

// Config shapes a Controller.
type Config struct {
	// ChunkRows is the adaptive chunk size in source rows. Zero selects 256.
	ChunkRows int
	// Divergence is the |observed − planned| per-leaf reduction bound that
	// arms a re-plan. Zero selects 0.15.
	Divergence float64
	// HysteresisChunks is how many consecutive diverging chunks must be seen
	// before re-planning — noisy single chunks must not thrash the plan.
	// Zero selects 2.
	HysteresisChunks int
	// MinRows is the per-leaf evidence floor: a leaf's observed selectivity
	// counts only after this many rows reached it. Zero selects 64.
	MinRows uint64
	// MaxSwaps bounds plan swaps per run. Zero selects 2.
	MaxSwaps int
	// ReplanCostVMS is the virtual cost charged per re-plan attempt (the
	// re-optimizer's own work is modeled, like every other cost in the
	// simulator). Zero selects 5.
	ReplanCostVMS float64
	// MaxReplanVMS is the cumulative virtual-time budget for re-planning in
	// one run; attempts beyond it are skipped (the run continues on its
	// current plan) and recorded. Zero selects 25.
	MaxReplanVMS float64
	// Breaker shapes the per-predicate re-plan circuit breaker. Backoff is
	// measured in adaptive runs of that predicate.
	Breaker online.BreakerConfig
	// Metrics (optional) receives adapt_* counters and gauges.
	Metrics *metrics.Registry
	// Obs (optional) receives adapt.* events and per-replan spans.
	Obs *obs.Tracer
}

func (c *Config) fill() {
	if c.ChunkRows == 0 {
		c.ChunkRows = 256
	}
	if c.Divergence == 0 {
		c.Divergence = 0.15
	}
	if c.HysteresisChunks == 0 {
		c.HysteresisChunks = 2
	}
	if c.MinRows == 0 {
		c.MinRows = 64
	}
	if c.MaxSwaps == 0 {
		c.MaxSwaps = 2
	}
	if c.ReplanCostVMS == 0 {
		c.ReplanCostVMS = 5
	}
	if c.MaxReplanVMS == 0 {
		c.MaxReplanVMS = 25
	}
}

// ReoptFunc is the optimizer re-entry: re-order the running filter by its
// observed statistics. Production code passes a closure over
// optimizer.Optimizer.Reoptimize; tests inject failures here.
type ReoptFunc func(f *optimizer.Compiled, minRows uint64) (*optimizer.Reoptimized, error)

// PlanCache is the serve-layer plan cache as the controller sees it:
// demotion drops a stale entry, promotion installs the re-ordered filter so
// later sessions start on the corrected order. Implementations must be safe
// for concurrent use. Both calls are optional no-ops for standalone runs.
type PlanCache interface {
	DemotePlan(key string)
	PromotePlan(key string, re *optimizer.Reoptimized)
}

// RunSpec describes one adaptive run to the controller.
type RunSpec struct {
	// Key identifies the predicate/plan: the breaker and cache entry it
	// guards. Empty disables the breaker and cache plumbing.
	Key string
	// Reopt is the optimizer re-entry. Required for adaptation; nil degrades
	// the run to plain execution.
	Reopt ReoptFunc
	// Cache (optional) is demoted/promoted on swap.
	Cache PlanCache
}

// Report describes what adaptation did during one run.
type Report struct {
	// Adapted is whether the run executed on the adaptive path at all.
	Adapted bool
	// Pinned is whether an open breaker pinned the plan for this run.
	Pinned bool
	// Replans, ReplanFailures and BudgetSkips count optimizer re-entries,
	// failed re-entries, and re-entries skipped for budget exhaustion.
	Replans, ReplanFailures, BudgetSkips int
	// ReplanVMS is the virtual cost charged for re-planning (also added to
	// the Result's cluster time as the ReplanOp row of PerOp).
	ReplanVMS float64
	// Swaps lists the hot-swaps performed (mirrors Result.Swaps).
	Swaps []engine.PlanSwap
	// MaxDivergence is the largest per-leaf divergence observed at any
	// chunk boundary.
	MaxDivergence float64
	// Breaker is the predicate's breaker state after the run.
	Breaker online.BreakerState
	// FinalExpr is the filter's evaluation order at end of run.
	FinalExpr string
}

// Controller owns the per-predicate breakers and run clock shared by every
// adaptive run of a server. Safe for concurrent use.
type Controller struct {
	cfg Config

	mu       sync.Mutex
	breakers map[string]*online.Breaker
	runs     int // monotonic adaptive-run clock, the breakers' tick
	trips    int
}

// New builds a controller.
func New(cfg Config) *Controller {
	cfg.fill()
	return &Controller{cfg: cfg, breakers: map[string]*online.Breaker{}}
}

// Config returns the controller's filled configuration.
func (c *Controller) Config() Config { return c.cfg }

// Trips returns the lifetime count of re-plan breaker trips.
func (c *Controller) Trips() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.trips
}

// BreakerState returns the current breaker state for a key (closed for
// unknown keys).
func (c *Controller) BreakerState(key string) online.BreakerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	if b, ok := c.breakers[key]; ok {
		return b.State()
	}
	return online.BreakerClosed
}

// breakerFor resolves the key's breaker, creating it closed.
func (c *Controller) breakerFor(key string) *online.Breaker {
	b, ok := c.breakers[key]
	if !ok {
		bcfg := c.cfg.Breaker
		bcfg.JitterSeed ^= hashKey(key)
		b = online.NewBreaker(bcfg)
		c.breakers[key] = b
	}
	return b
}

// hashKey is FNV-1a, de-synchronizing per-key backoff jitter.
func hashKey(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// ReplanOp names the PerOp row a Controller appends to every Result it
// returns: the run's re-planning cost, zero when nothing re-planned. The row
// is unconditional so that shard legs of one session keep the same PerOp
// shape (and merge positionally) whatever each leg's re-plan count.
const ReplanOp = "AdaptReplan"

// Run executes the plan adaptively. The plan's PP filter (a
// *optimizer.Compiled behind engine.PPFilter) is cloned with runtime probes;
// at each chunk boundary the controller checks divergence with hysteresis,
// re-enters the optimizer within the virtual budget, swaps the remaining
// chunks onto the re-ordered filter and demotes/promotes the plan cache.
// Plans with no compiled PP filter, a nil Reopt, or an open breaker run
// unadapted. The returned Result is never nil when err is nil.
func (c *Controller) Run(p engine.Plan, ecfg engine.Config, spec RunSpec) (*engine.Result, *Report, error) {
	rep := &Report{}
	// The engine config's trace context is the session identity: every
	// adapt span and event of this run carries its TraceID.
	ctx := ecfg.Trace
	// finish closes every path: re-planning is modeled work, charged to the
	// run like any operator.
	finish := func(res *engine.Result, err error) (*engine.Result, *Report, error) {
		if err != nil {
			return nil, rep, err
		}
		res.ClusterTime += rep.ReplanVMS
		res.PerOp = append(res.PerOp, engine.OpStats{Name: ReplanOp, Cost: rep.ReplanVMS})
		return res, rep, nil
	}
	comp, opIdx := compiledFilter(p)
	if comp == nil || spec.Reopt == nil {
		return finish(engine.Run(p, ecfg))
	}

	// One breaker tick per adaptive run of this key: open breakers pin the
	// plan, and once the jittered backoff has elapsed the next run is the
	// probation attempt.
	var br *online.Breaker
	tick := 0
	if spec.Key != "" {
		c.mu.Lock()
		c.runs++
		tick = c.runs
		br = c.breakerFor(spec.Key)
		if br.State() == online.BreakerOpen && br.Ready(tick) {
			br.Probation()
			c.event(ctx, "adapt.breaker_probation", obs.Attr{Key: "key", Value: spec.Key})
		}
		pinned := br.State() == online.BreakerOpen
		c.mu.Unlock()
		if pinned {
			rep.Pinned = true
			rep.Breaker = online.BreakerOpen
			c.counter("adapt_pinned_runs_total", "Adaptive runs executed on a pinned plan (open re-plan breaker).").Inc()
			return finish(engine.Run(p, ecfg))
		}
	}

	obsF, ro := comp.WithRuntimeObserver()
	ops := append([]engine.Operator(nil), p.Ops...)
	ops[opIdx] = &engine.PPFilter{F: obsF}
	rep.Adapted = true
	current := obsF
	streak := 0
	swaps := 0
	budgetEventSent := false

	decide := func(cs engine.ChunkStats) (engine.BlobFilter, error) {
		if swaps >= c.cfg.MaxSwaps {
			return nil, nil
		}
		d := ro.MaxDivergence(c.cfg.MinRows)
		if d > rep.MaxDivergence {
			rep.MaxDivergence = d
		}
		c.gauge("adapt_divergence", "Largest observed-vs-planned per-leaf reduction divergence at the last chunk boundary.").Set(d)
		if d < c.cfg.Divergence {
			streak = 0
			return nil, nil
		}
		// Hysteresis: one noisy chunk must not thrash the plan.
		if streak++; streak < c.cfg.HysteresisChunks {
			return nil, nil
		}
		if rep.ReplanVMS+c.cfg.ReplanCostVMS > c.cfg.MaxReplanVMS {
			rep.BudgetSkips++
			c.counter("adapt_replan_budget_skips_total", "Re-plan attempts skipped because the virtual-time budget was exhausted.").Inc()
			if !budgetEventSent {
				budgetEventSent = true
				c.event(ctx, "adapt.replan_budget_exhausted",
					obs.Attr{Key: "key", Value: spec.Key},
					obs.Attr{Key: "budget_vms", Value: strconv.FormatFloat(c.cfg.MaxReplanVMS, 'f', 1, 64)})
			}
			return nil, nil
		}
		rep.Replans++
		rep.ReplanVMS += c.cfg.ReplanCostVMS
		c.counter("adapt_replans_total", "Mid-query optimizer re-entries attempted.").Inc()
		var sp obs.Span
		if c.cfg.Obs.Enabled() {
			sp = c.cfg.Obs.BeginCtx(ctx, obs.KindAdapt, fmt.Sprintf("replan[%s]", spec.Key))
			sp.SetAttr("chunk", strconv.Itoa(cs.Chunk))
			sp.SetAttr("divergence", strconv.FormatFloat(d, 'f', 3, 64))
			sp.CostVMS = c.cfg.ReplanCostVMS
		}
		start := time.Now()
		re, err := spec.Reopt(current, c.cfg.MinRows)
		if c.cfg.Obs.Enabled() {
			sp.WallNS = time.Since(start).Nanoseconds()
		}
		if err != nil {
			rep.ReplanFailures++
			c.counter("adapt_replan_failures_total", "Mid-query re-entries that failed; the run continued on its current plan.").Inc()
			c.event(ctx, "adapt.replan_failed",
				obs.Attr{Key: "key", Value: spec.Key},
				obs.Attr{Key: "chunk", Value: strconv.Itoa(cs.Chunk)},
				obs.Attr{Key: "error", Value: err.Error()})
			if c.cfg.Obs.Enabled() {
				sp.SetAttr("error", err.Error())
				c.cfg.Obs.EmitSpan(sp)
			}
			c.reportBreaker(ctx, br, spec.Key, false, tick)
			streak = 0 // re-arm hysteresis before the next attempt
			return nil, err
		}
		c.reportBreaker(ctx, br, spec.Key, true, tick)
		streak = 0
		if !re.Changed {
			// The optimizer looked and kept the order: the divergence is real
			// but the current plan is already rank-optimal for it.
			if c.cfg.Obs.Enabled() {
				sp.SetAttr("changed", "false")
				c.cfg.Obs.EmitSpan(sp)
			}
			return nil, nil
		}
		if c.cfg.Obs.Enabled() {
			sp.SetAttr("changed", "true")
			sp.SetAttr("new_expr", re.Expr)
			c.cfg.Obs.EmitSpan(sp)
		}
		c.counter("adapt_swaps_total", "Mid-query plan hot-swaps performed.").Inc()
		c.event(ctx, "adapt.swap",
			obs.Attr{Key: "key", Value: spec.Key},
			obs.Attr{Key: "chunk", Value: strconv.Itoa(cs.Chunk + 1)},
			obs.Attr{Key: "old_expr", Value: current.EvalExpr()},
			obs.Attr{Key: "new_expr", Value: re.Expr},
			obs.Attr{Key: "divergence", Value: strconv.FormatFloat(d, 'f', 3, 64)})
		if spec.Cache != nil && spec.Key != "" {
			spec.Cache.DemotePlan(spec.Key)
			spec.Cache.PromotePlan(spec.Key, re)
		}
		swaps++
		current = re.Filter
		return re.Filter, nil
	}

	res, err := engine.RunAdaptive(engine.Plan{Ops: ops}, ecfg, engine.AdaptiveConfig{
		ChunkRows: c.cfg.ChunkRows,
		Decide:    decide,
	})
	if err != nil {
		return nil, rep, err
	}
	rep.Swaps = res.Swaps
	rep.FinalExpr = current.EvalExpr()
	if br != nil {
		rep.Breaker = br.State()
	}
	return finish(res, nil)
}

// reportBreaker feeds one re-plan outcome to the key's breaker under the
// controller lock, emitting trip/close telemetry tagged with the session.
func (c *Controller) reportBreaker(ctx obs.TraceContext, br *online.Breaker, key string, ok bool, tick int) {
	if br == nil {
		return
	}
	c.mu.Lock()
	tr := br.Report(ok, tick)
	if tr == online.TransitionTrip {
		c.trips++
	}
	trips := c.trips
	c.mu.Unlock()
	switch tr {
	case online.TransitionTrip:
		c.counter("adapt_breaker_trips_total", "Re-plan circuit-breaker trips; the plan is pinned with jittered backoff.").Inc()
		c.event(ctx, "adapt.breaker_trip",
			obs.Attr{Key: "key", Value: key},
			obs.Attr{Key: "trips_total", Value: strconv.Itoa(trips)})
	case online.TransitionClose:
		c.counter("adapt_breaker_closes_total", "Re-plan breakers closed after a successful probation re-plan.").Inc()
		c.event(ctx, "adapt.breaker_close", obs.Attr{Key: "key", Value: key})
	}
}

// compiledFilter finds the plan's first PP filter backed by a compiled
// optimizer expression, returning it and its plan position (-1 when absent).
func compiledFilter(p engine.Plan) (*optimizer.Compiled, int) {
	for i, op := range p.Ops {
		if pf, ok := op.(*engine.PPFilter); ok {
			if comp, ok := pf.F.(*optimizer.Compiled); ok {
				return comp, i
			}
			return nil, -1 // a PP filter we cannot re-order
		}
	}
	return nil, -1
}

func (c *Controller) counter(name, help string) *metrics.Counter {
	if c.cfg.Metrics == nil {
		return nil
	}
	return c.cfg.Metrics.Counter(name, help)
}

func (c *Controller) gauge(name, help string) *metrics.Gauge {
	if c.cfg.Metrics == nil {
		return nil
	}
	return c.cfg.Metrics.Gauge(name, help)
}

func (c *Controller) event(ctx obs.TraceContext, name string, attrs ...obs.Attr) {
	c.cfg.Obs.EventCtx(ctx, name, attrs...)
}
