package optimizer

import (
	"fmt"
	"maps"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"probpred/internal/metrics"
	"probpred/internal/obs"
	"probpred/internal/query"
)

// Options configures one optimization call.
type Options struct {
	// Accuracy is the query-wide accuracy target a ∈ (0, 1]. Zero selects 1
	// (no false negatives).
	Accuracy float64
	// UDFCost is u, the per-blob virtual cost of the original query plan
	// downstream of the PP (everything the PP can short-circuit, §3).
	UDFCost float64
	// MaxPPs is the paper's constant k bounding PPs per expression. Zero
	// selects 4.
	MaxPPs int
	// Domains maps columns to their finite value domains, enabling the
	// wrangler rewrites of A.2. Optional.
	Domains map[string][]query.Value
	// DisableBudgetSearch pins conjunctions to an even accuracy split
	// instead of searching allocations — an ablation knob quantifying the
	// value of §6.2's dynamic program.
	DisableBudgetSearch bool
	// DisableOrderSearch executes sub-expressions in written order instead
	// of cheapest-effective-first — an ablation knob for §6.2's ordering.
	DisableOrderSearch bool
	// Obs receives one KindOptimize span per Optimize call, carrying the
	// search's counts (candidates generated and costed, memo hits and
	// entries) and the chosen plan's cost/reduction. Nil disables tracing.
	Obs *obs.Tracer
	// Trace is the session trace context the search belongs to: the
	// KindOptimize span carries its TraceID and parents under its SpanID,
	// tying plan searches to the served session that triggered them.
	Trace obs.TraceContext
}

func (o *Options) fill() {
	if o.Accuracy == 0 {
		o.Accuracy = 1
	}
	if o.MaxPPs == 0 {
		o.MaxPPs = 4
	}
}

// Alternative describes one costed candidate expression (Table 10's
// alternate-plan rows).
type Alternative struct {
	// Expr renders the expression.
	Expr string
	// Cost is the expected per-blob PP execution cost c(a].
	Cost float64
	// Reduction is the estimated data reduction r(a].
	Reduction float64
	// PlanCost is c + (1−r)·u.
	PlanCost float64
	// LeafAccuracies lists the per-PP accuracy allocations.
	LeafAccuracies string
}

// Decision is the optimizer's output for one query.
type Decision struct {
	// Inject reports whether using PPs beats running the query as-is. When
	// false, Filter is nil and the plan should run unmodified (r ≤ c/u
	// makes early filtering a loss, §3).
	Inject bool
	// Filter is the executable PP filter (an engine.BlobFilter).
	Filter *Compiled
	// Expr is the chosen expression's rendering.
	Expr string
	// LeafAccuracies lists the chosen per-PP accuracy allocations.
	LeafAccuracies string
	// Cost, Reduction and PlanCost describe the chosen plan.
	Cost, Reduction, PlanCost float64
	// BaselineCost is the per-blob cost without PPs (= u).
	BaselineCost float64
	// NumCandidates is the number of feasible expressions explored.
	NumCandidates int
	// Alternatives lists every candidate, best first.
	Alternatives []Alternative
	// NumPPs is the number of PP leaves in the chosen expression.
	NumPPs int
	// Search profiles the plan search that produced this decision.
	Search SearchStats
	// CorpusVersion is the version of the corpus snapshot the search
	// consulted — the one state the decision is a function of. Plan caches
	// stamp entries with it, never with a separate Corpus.Version read, which
	// could straddle a mutation.
	CorpusVersion uint64
	// leaves caches the chosen expression's clause keys for the A.5
	// dependence feedback loop.
	leaves []string
	// consulted caches the dependency keys the plan search asked its corpus
	// snapshot about (clause keys, negation bases and column wildcards — hits
	// and misses alike). Plan caches use it for partial invalidation.
	consulted []string
}

// SearchStats is the ledger of one Optimize call — the optimizer's own
// profile, embedded in the Decision; the optimize span's attributes and the
// optimizer_* registry instruments are derived from it (emitSearch).
type SearchStats struct {
	// Generated is how many candidate expressions the rewrite rules
	// produced before deduplication and the k-leaf bound.
	Generated int
	// Deduped is how many generated candidates were suppressed as exact
	// duplicates of an earlier expression.
	Deduped int
	// Costed is how many surviving candidates went through the §6.2
	// costing dynamic program (= Decision.NumCandidates).
	Costed int
	// MemoHits / MemoEntries profile the costing DP's memo table: entries
	// are distinct (sub-expression, accuracy) plans computed, hits are
	// lookups served without recomputation.
	MemoHits, MemoEntries int
	// WallNS is the real time the search took.
	WallNS int64
}

// LeafClauses returns the clause keys of the PPs in the chosen expression
// (empty when nothing was injected). Negation-derived PPs report the negated
// clause key; callers attributing training cost should also consult the
// base clause (§5.6: the classifier is shared).
func (d *Decision) LeafClauses() []string {
	return append([]string(nil), d.leaves...)
}

// Consulted returns the dependency keys the plan search asked the corpus
// about — every clause key it looked up (found or not, plus negation bases)
// and a "col:<column>" wildcard per touched column, sorted. The set is a
// function of predicate, options and corpus snapshot. A later corpus
// mutation that leaves all of them untouched cannot have changed this
// decision, which is what lets plan caches revalidate instead of evicting
// (Corpus.UnchangedSince).
func (d *Decision) Consulted() []string {
	return append([]string(nil), d.consulted...)
}

// Optimizer holds the corpus and the runtime-dependence state shared across
// queries (A.5). Optimize, Reoptimize, ObserveRuntime and DependentPairs are
// safe for concurrent use, on one Optimizer or on several over one Corpus;
// SetMetrics and SetObs are set-up calls.
type Optimizer struct {
	corpus *Corpus
	// dependent flags clause pairs whose PPs proved dependent at runtime.
	// Guarded by depMu; a search works on its own copy.
	depMu     sync.Mutex
	dependent map[string]bool
	// metrics (optional, SetMetrics) records search and drift telemetry.
	metrics *metrics.Registry
	// tr (optional, SetObs) receives ObserveRuntime misestimation events.
	tr *obs.Tracer
}

// New returns an optimizer over the given corpus.
func New(c *Corpus) *Optimizer {
	return &Optimizer{corpus: c, dependent: map[string]bool{}}
}

// Corpus exposes the optimizer's PP corpus.
func (o *Optimizer) Corpus() *Corpus { return o.corpus }

// Optimize chooses the best PP expression for the predicate, or decides not
// to inject any (§6.2). It returns an error only for invalid options;
// "no useful PP" is a normal Inject=false decision.
func (o *Optimizer) Optimize(pred query.Pred, opts Options) (*Decision, error) {
	opts.fill()
	if opts.Accuracy <= 0 || opts.Accuracy > 1 {
		return nil, fmt.Errorf("optimizer: accuracy target %v outside (0,1]", opts.Accuracy)
	}
	if opts.UDFCost < 0 {
		return nil, fmt.Errorf("optimizer: negative UDF cost %v", opts.UDFCost)
	}
	// Canonicalize before searching: the search must be a function of the
	// predicate's MEANING, not its spelling, so that (a) equal queries get
	// equal plans however they are written, and (b) a plan cache keyed on
	// CanonicalKey can serve any spelling with a plan searched for another.
	// Canonicalization also strips double negation and nested duplicates the
	// rewrite rules would otherwise see as distinct structures. Spans keep
	// the caller's spelling (orig) so traces match what the user asked.
	orig := pred
	pred = Canonicalize(pred)
	if _, unsat := pred.(query.False); unsat {
		// The predicate is unsatisfiable (e.g. s>60 ∧ s<50): no blob can
		// contribute to the answer, so every blob is dropped for free with
		// zero accuracy loss.
		return &Decision{
			Inject:       true,
			Filter:       dropAllFilter(),
			Expr:         "false (unsatisfiable predicate)",
			Reduction:    1,
			BaselineCost: opts.UDFCost,
		}, nil
	}
	start := time.Now()
	// One snapshot for the whole search: the generator's consultations of it
	// (and their misses) are the exact dependency set of the decision.
	g := &generator{snap: o.corpus.snap.Load(), deps: consulted{}, domains: opts.Domains, maxPPs: opts.MaxPPs, skip: o.dependentPairs()}
	candidates := g.gen(pred)
	dec := &Decision{
		BaselineCost:  opts.UDFCost,
		NumCandidates: len(candidates),
		PlanCost:      opts.UDFCost,
		CorpusVersion: g.snap.version,
		consulted:     g.deps.sorted(),
	}
	if len(candidates) > 0 {
		dec.Alternatives = make([]Alternative, 0, len(candidates))
	}
	dec.Search = SearchStats{Generated: g.generated, Deduped: g.deduped, Costed: len(candidates)}
	copts := costOpts{
		uniformBudget: opts.DisableBudgetSearch,
		fixedOrder:    opts.DisableOrderSearch,
		profile:       &dec.Search,
	}
	var bestPlan *plan
	best := -1
	var leafAcc []byte // rendering scratch, reused across candidates
	for i, e := range candidates {
		p := costExpr(e, opts.Accuracy, opts.UDFCost, copts)
		leafAcc = appendLeafAccuracies(leafAcc[:0], p)
		dec.Alternatives = append(dec.Alternatives, Alternative{
			Expr:           g.names[i],
			Cost:           p.cost,
			Reduction:      p.reduction,
			PlanCost:       planCost(p, opts.UDFCost),
			LeafAccuracies: string(leafAcc),
		})
		if bestPlan == nil || planCost(p, opts.UDFCost) < planCost(bestPlan, opts.UDFCost) {
			bestPlan, best = p, i
		}
	}
	if bestPlan != nil && planCost(bestPlan, opts.UDFCost) < opts.UDFCost {
		alt := dec.Alternatives[best] // rendered once: the decision shares its strings
		dec.Inject = true
		dec.Expr = alt.Expr
		dec.LeafAccuracies = alt.LeafAccuracies
		dec.Cost = bestPlan.cost
		dec.Reduction = bestPlan.reduction
		dec.PlanCost = alt.PlanCost
		dec.Filter = compilePlan(bestPlan, alt.Expr)
		for _, pp := range candidates[best].Leaves(nil) {
			dec.leaves = append(dec.leaves, pp.Clause)
		}
		dec.NumPPs = len(dec.leaves)
	}
	sortAlternatives(dec.Alternatives)
	dec.Search.WallNS = time.Since(start).Nanoseconds()
	o.emitSearch(opts.Obs, opts.Trace, orig, dec)
	return dec, nil
}

// emitSearch derives one optimization's telemetry from its ledger,
// dec.Search: the registry instruments (SetMetrics) and the KindOptimize
// span.
func (o *Optimizer) emitSearch(tr *obs.Tracer, ctx obs.TraceContext, pred query.Pred, dec *Decision) {
	if reg := o.metrics; reg != nil {
		reg.Counter("optimizer_searches_total", "Plan searches performed.").Inc()
		if dec.Inject {
			reg.Counter("optimizer_injections_total", "Plan searches that chose to inject a PP filter.").Inc()
		}
		reg.Histogram("optimizer_candidates_costed", "Candidate expressions costed per search.").Observe(float64(dec.Search.Costed))
		reg.Histogram("optimizer_search_wall_ns", "Real wall-clock duration per plan search, nanoseconds.").Observe(float64(dec.Search.WallNS))
	}
	if !tr.Enabled() {
		return
	}
	sp := tr.BeginCtx(ctx, obs.KindOptimize, pred.String())
	sp.Start = sp.Start.Add(-time.Duration(dec.Search.WallNS))
	sp.SetAttr("injected", strconv.FormatBool(dec.Inject))
	sp.SetAttr("candidates", strconv.Itoa(dec.Search.Costed))
	sp.SetAttr("memo_hits", strconv.Itoa(dec.Search.MemoHits))
	if dec.Inject {
		sp.SetAttr("expr", dec.Expr)
		sp.SetAttr("reduction", strconv.FormatFloat(dec.Reduction, 'f', 3, 64))
	}
	sp.SetAttr("candidates_generated", strconv.Itoa(dec.Search.Generated))
	sp.SetAttr("memo_entries", strconv.Itoa(dec.Search.MemoEntries))
	sp.CostVMS = dec.PlanCost
	sp.WallNS = dec.Search.WallNS
	tr.EmitSpan(sp)
}

// sortAlternatives orders candidates by ascending plan cost, then
// expression text for determinism.
func sortAlternatives(alts []Alternative) {
	sort.SliceStable(alts, func(i, j int) bool {
		if alts[i].PlanCost != alts[j].PlanCost {
			return alts[i].PlanCost < alts[j].PlanCost
		}
		return alts[i].Expr < alts[j].Expr
	})
}

// Dependence detection (A.5): the observed reduction may deviate from the
// estimate by an absolute floor plus a relative share of the estimate
// before the plan's PPs are flagged as dependent.
const (
	dependenceAbsTolerance = 0.1
	dependenceRelTolerance = 0.4
)

// ObserveRuntime feeds back the empirically observed reduction of an
// executed decision. Every injected observation updates the
// estimated-vs-observed reduction gauges; an observation outside the
// dependence tolerance additionally counts as a misestimation (counter plus
// obs event), and — when the decision had at least two PP leaves — flags
// every clause pair as dependent so future optimizations avoid combining
// them (A.5's runtime fix). Single-leaf misestimations cannot be blamed on
// dependence, but they are exactly the drift the telemetry must surface.
func (o *Optimizer) ObserveRuntime(dec *Decision, observedReduction float64) {
	o.ObserveRuntimeCtx(dec, observedReduction, obs.TraceContext{})
}

// ObserveRuntimeCtx is ObserveRuntime with the observing session's trace
// context: the misestimation event carries the session's TraceID, so a
// drifted query is attributable from the event stream alone.
func (o *Optimizer) ObserveRuntimeCtx(dec *Decision, observedReduction float64, ctx obs.TraceContext) {
	if dec == nil || !dec.Inject {
		return
	}
	if reg := o.metrics; reg != nil {
		reg.Counter("optimizer_observations_total", "Runtime reduction observations fed back to the optimizer.").Inc()
		reg.Gauge("optimizer_estimated_reduction", "Estimated data reduction of the most recently observed decision.").Set(dec.Reduction)
		reg.Gauge("optimizer_observed_reduction", "Observed data reduction of the most recently observed decision.").Set(observedReduction)
		reg.Histogram("optimizer_reduction_error", "Absolute estimated-minus-observed reduction error per observation.").Observe(math.Abs(observedReduction - dec.Reduction))
	}
	tolerance := math.Max(dependenceAbsTolerance, dependenceRelTolerance*dec.Reduction)
	if math.Abs(observedReduction-dec.Reduction) <= tolerance {
		return
	}
	if reg := o.metrics; reg != nil {
		reg.Counter("optimizer_misestimations_total", "Observations whose reduction fell outside the dependence tolerance.").Inc()
	}
	if o.tr.Enabled() {
		o.tr.EventCtx(ctx, "optimizer.misestimation",
			obs.Attr{Key: "expr", Value: dec.Expr},
			obs.Attr{Key: "estimated", Value: strconv.FormatFloat(dec.Reduction, 'f', 3, 64)},
			obs.Attr{Key: "observed", Value: strconv.FormatFloat(observedReduction, 'f', 3, 64)})
	}
	if len(dec.leaves) < 2 {
		return
	}
	o.depMu.Lock()
	for i := 0; i < len(dec.leaves); i++ {
		for j := i + 1; j < len(dec.leaves); j++ {
			o.dependent[pairKey(dec.leaves[i], dec.leaves[j])] = true
		}
	}
	flagged := len(o.dependent)
	o.depMu.Unlock()
	if reg := o.metrics; reg != nil {
		reg.Gauge("optimizer_dependent_pairs", "Clause pairs currently flagged as dependent.").Set(float64(flagged))
	}
}

// DependentPairs returns how many clause pairs are currently flagged.
func (o *Optimizer) DependentPairs() int { return len(o.dependentPairs()) }

// dependentPairs returns a search's own copy of the flagged pairs, nil when
// there are none.
func (o *Optimizer) dependentPairs() map[string]bool {
	o.depMu.Lock()
	defer o.depMu.Unlock()
	if len(o.dependent) == 0 {
		return nil
	}
	return maps.Clone(o.dependent)
}

// RewriteForRenames rewrites a predicate stated over post-projection column
// names back into pre-projection names (the X_{p,Ca→Cb} pushdown of A.4's
// column-renaming rule), so the PP can be matched and seeded below the
// projection. Columns not in the rename map pass through unchanged.
func RewriteForRenames(p query.Pred, oldToNew map[string]string) query.Pred {
	newToOld := make(map[string]string, len(oldToNew))
	for oldName, newName := range oldToNew {
		newToOld[newName] = oldName
	}
	var rewrite func(query.Pred) query.Pred
	rewrite = func(q query.Pred) query.Pred {
		switch n := q.(type) {
		case *query.Clause:
			col := n.Col
			if oldName, ok := newToOld[col]; ok {
				col = oldName
			}
			return &query.Clause{Col: col, Op: n.Op, Val: n.Val}
		case *query.And:
			kids := make([]query.Pred, len(n.Kids))
			for i, k := range n.Kids {
				kids[i] = rewrite(k)
			}
			return &query.And{Kids: kids}
		case *query.Or:
			kids := make([]query.Pred, len(n.Kids))
			for i, k := range n.Kids {
				kids[i] = rewrite(k)
			}
			return &query.Or{Kids: kids}
		case *query.Not:
			return &query.Not{Kid: rewrite(n.Kid)}
		}
		return q
	}
	return rewrite(p)
}
