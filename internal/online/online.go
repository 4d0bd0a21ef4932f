// Package online implements the paper's online context (§4, Figure 3b): at
// cold start no PP is available, so query plans run unmodified but their UDF
// outputs label the raw blobs for the relevant simple clauses; periodically,
// once enough labeled input accumulates, PPs are (re)trained and subsequent
// runs of the queries use plans containing them. Runtime observations feed
// the A.5 dependence fix.
//
// # Accuracy watchdog
//
// The same observed-vs-estimated feedback channel drives a per-clause
// accuracy watchdog: after executing an injected plan, callers report the
// realized accuracy (the fraction of the reference output the PP retained)
// against the target they asked for. K consecutive below-target reports trip
// a circuit breaker for every PP in that decision — the PP leaves the corpus,
// so subsequent Decide calls fall back to the unmodified NoP plan (which is
// always correct: PPs only ever remove work, never results), and the clause
// is queued for retraining on fresh labels. Once retrained, the PP re-enters
// on probation: the next report either closes the breaker or trips it again.
//
//	dec, _ := sys.Decide(pred, 0.95, udfCost)
//	// ... execute; measure observed accuracy vs the reference output ...
//	sys.ReportAccuracy(dec, observed, 0.95)
//	if sys.Breaker("t=SUV") == online.BreakerOpen {
//	    // the system is running this clause's queries unmodified and
//	    // collecting fresh labels until a retrained PP passes probation
//	}
package online

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"probpred/internal/blob"
	"probpred/internal/core"
	"probpred/internal/mathx"
	"probpred/internal/obs"
	"probpred/internal/optimizer"
	"probpred/internal/query"
)

// Config shapes the online system.
type Config struct {
	// Clauses lists the simple clauses to maintain PPs for (inferred from
	// historical queries in a batch system; declared here).
	Clauses []string
	// MinLabels is how many labeled blobs a clause needs before its first
	// training. Zero selects 500.
	MinLabels int
	// RetrainEvery retrains a clause's PP after this many new labels
	// beyond the last training. Zero selects 2000.
	RetrainEvery int
	// BufferCap bounds the per-clause label buffer (oldest labels are
	// evicted first, so retraining follows the stream). Zero selects 4000.
	BufferCap int
	// Train passes through PP construction settings.
	Train core.TrainConfig
	// WarmStart makes every scheduled retraining start from the clause's
	// previous PP (core.TrainConfig.Warm): the feature space is frozen and
	// SVM weights carry over, so per-segment incremental training fine-tunes
	// instead of relearning. Watchdog-triggered retrainings always start
	// cold — the carried-over model is the one that just breached.
	WarmStart bool
	// Domains feeds the optimizer's wrangler.
	Domains map[string][]query.Value
	// Seed drives splits.
	Seed uint64
	// Watchdog shapes the accuracy circuit breaker.
	Watchdog WatchdogConfig
	// Obs receives KindTrain spans for every (re)training, the KindOptimize
	// span of each Decide, watchdog state-transition events (online.train,
	// watchdog.trip, watchdog.probation, watchdog.close, watchdog.breach)
	// and ReportRun's optimizer.misestimation events. Nil disables tracing.
	Obs *obs.Tracer
}

// WatchdogConfig shapes the per-clause accuracy circuit breaker.
type WatchdogConfig struct {
	// K is how many consecutive below-target accuracy reports trip a
	// clause's breaker. Zero selects 3.
	K int
	// Margin is the absolute accuracy slack tolerated below the target
	// before a report counts as a breach (observed >= target-Margin
	// passes). Zero means the target is enforced exactly.
	Margin float64
	// FreshLabels is how many labels a tripped clause must collect before
	// its retraining runs — retraining on the very buffer that produced the
	// bad PP would reproduce it. Zero selects MinLabels/4 (at least 1).
	FreshLabels int
}

func (c *Config) fill() {
	if c.MinLabels == 0 {
		c.MinLabels = 500
	}
	if c.RetrainEvery == 0 {
		c.RetrainEvery = 2000
	}
	if c.BufferCap == 0 {
		c.BufferCap = 4000
	}
	if c.Watchdog.K == 0 {
		c.Watchdog.K = 3
	}
	if c.Watchdog.FreshLabels == 0 {
		c.Watchdog.FreshLabels = c.MinLabels / 4
		if c.Watchdog.FreshLabels < 1 {
			c.Watchdog.FreshLabels = 1
		}
	}
}

// BreakerState is the accuracy watchdog's per-clause circuit state.
type BreakerState int

const (
	// BreakerClosed: the clause's PP (if trained) serves decisions normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the watchdog tripped; the PP is out of the corpus,
	// queries fall back to the unmodified NoP plan, and the clause is
	// collecting fresh labels for retraining.
	BreakerOpen
	// BreakerProbation: a retrained PP is live again; the next accuracy
	// report either closes the breaker or trips it again.
	BreakerProbation
)

// String renders the state for reports.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerProbation:
		return "probation"
	default:
		return "closed"
	}
}

// clauseState tracks one clause's label buffer, training status and
// watchdog circuit.
type clauseState struct {
	pred           query.Pred
	blobs          []blob.Blob
	labels         []bool
	sinceLastTrain int
	trained        bool
	// lastPP is the most recent PP trained for the clause, kept as the warm
	// start of the next scheduled retraining (nil after a watchdog trip:
	// retraining must not fine-tune the model that breached).
	lastPP *core.PP
	// cb is the clause's accuracy circuit (the Breaker state machine);
	// the watchdog maps its transitions to corpus side effects.
	cb *Breaker
}

// System is the online PP manager. Its methods are safe for concurrent use:
// mu guards the label buffers, breakers and counters, and the corpus and
// optimizer guard themselves, so Decide never waits for a training.
type System struct {
	cfg    Config
	corpus *optimizer.Corpus
	opt    *optimizer.Optimizer

	mu      sync.Mutex
	clauses map[string]*clauseState
	order   []string
	rng     *mathx.RNG
	// Trainings counts PP (re)trainings performed, for tests and reports.
	// Like Trips it is written under mu; read it once the calls that train
	// and report have returned.
	Trainings int
	// Trips counts watchdog circuit-breaker trips.
	Trips int
}

// New builds the system; it validates that every clause parses as a simple
// clause.
func New(cfg Config) (*System, error) {
	cfg.fill()
	if len(cfg.Clauses) == 0 {
		return nil, fmt.Errorf("online: no clauses configured")
	}
	corpus := optimizer.NewCorpus()
	s := &System{
		cfg:     cfg,
		corpus:  corpus,
		opt:     optimizer.New(corpus),
		clauses: map[string]*clauseState{},
		rng:     mathx.NewRNG(cfg.Seed ^ 0x0a11e),
	}
	for _, c := range cfg.Clauses {
		p, err := query.Parse(c)
		if err != nil {
			return nil, fmt.Errorf("online: clause %q: %w", c, err)
		}
		if _, ok := p.(*query.Clause); !ok {
			return nil, fmt.Errorf("online: %q is not a simple clause", c)
		}
		s.clauses[c] = &clauseState{pred: p, cb: NewBreaker(BreakerConfig{K: cfg.Watchdog.K})}
		s.order = append(s.order, c)
	}
	sort.Strings(s.order)
	return s, nil
}

// Observe records one blob whose relevant columns were materialized by the
// unmodified query plan (the "query plans output labeled inputs for relevant
// clauses" arrow of Figure 3b). Clauses whose columns are absent from the
// lookup are skipped — a query only labels the clauses it computes.
func (s *System) Observe(b blob.Blob, l query.Lookup) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, key := range s.order {
		st := s.clauses[key]
		ok, err := st.pred.Eval(l)
		if err != nil {
			continue // this query did not materialize the clause's column
		}
		if len(st.blobs) >= s.cfg.BufferCap {
			st.blobs = st.blobs[1:]
			st.labels = st.labels[1:]
		}
		st.blobs = append(st.blobs, b)
		st.labels = append(st.labels, ok)
		st.sinceLastTrain++
		if err := s.maybeTrain(key, st); err != nil {
			return err
		}
	}
	return nil
}

// maybeTrain (re)trains a clause's PP when enough labels accumulated. A
// clause whose breaker tripped retrains as soon as it has collected enough
// fresh labels, then re-enters on probation.
func (s *System) maybeTrain(key string, st *clauseState) error {
	var ready bool
	switch {
	case st.cb.State() == BreakerOpen:
		ready = st.sinceLastTrain >= s.cfg.Watchdog.FreshLabels
	case !st.trained:
		ready = len(st.blobs) >= s.cfg.MinLabels
	default:
		ready = st.sinceLastTrain >= s.cfg.RetrainEvery
	}
	if !ready {
		return nil
	}
	set := blob.Set{Blobs: st.blobs, Labels: st.labels}
	// Both classes must be present; otherwise wait for more data.
	if p := set.Positives(); p == 0 || p == set.Len() {
		return nil
	}
	train, val, _ := set.Split(s.rng.Split(), 0.8, 0.2)
	if val.Positives() == 0 {
		return nil // validation must see positives to calibrate thresholds
	}
	cfg := s.cfg.Train
	cfg.Seed ^= uint64(s.Trainings+1) * 0x9e37
	if s.cfg.WarmStart {
		cfg.Warm = st.lastPP
	}
	// Trainings are label-stream-driven, not session-driven, so each gets
	// its own root trace: the train span and its follow-up events self-join.
	var tctx obs.TraceContext
	if s.cfg.Obs.Enabled() {
		tctx = obs.TraceContext{TraceID: obs.NewTraceID()}
	}
	sp := s.cfg.Obs.BeginCtx(tctx, obs.KindTrain, key)
	pp, err := core.Train(key, train, val, cfg)
	if err != nil {
		sp.SetAttr("error", err.Error())
		s.cfg.Obs.End(&sp)
		return fmt.Errorf("online: training %q: %w", key, err)
	}
	sp.RowsIn = train.Len()
	sp.SetAttr("approach", pp.Approach)
	sp.SetAttr("retrain", strconv.FormatBool(st.cb.State() == BreakerOpen))
	s.cfg.Obs.End(&sp)
	s.cfg.Obs.EventCtx(tctx, "online.train", obs.Attr{Key: "clause", Value: key},
		obs.Attr{Key: "labels", Value: strconv.Itoa(len(st.labels))})
	s.corpus.Add(pp)
	st.trained = true
	st.lastPP = pp
	st.sinceLastTrain = 0
	s.Trainings++
	if st.cb.State() == BreakerOpen {
		st.cb.Probation()
		s.cfg.Obs.EventCtx(tctx, "watchdog.probation", obs.Attr{Key: "clause", Value: key})
	}
	return nil
}

// TrainedClauses returns the clauses with a live PP.
func (s *System) TrainedClauses() []string {
	return s.clausesWhere(func(st *clauseState) bool { return st.trained })
}

func (s *System) clausesWhere(keep func(*clauseState) bool) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, key := range s.order {
		if keep(s.clauses[key]) {
			out = append(out, key)
		}
	}
	return out
}

// Decide optimizes a query predicate against the current corpus. During
// cold start the decision simply does not inject.
func (s *System) Decide(pred query.Pred, accuracy, udfCost float64) (*optimizer.Decision, error) {
	return s.DecideCtx(pred, accuracy, udfCost, obs.TraceContext{})
}

// DecideCtx is Decide carrying the deciding session's trace context, so the
// plan-search span derived from the decision joins the session's trace.
func (s *System) DecideCtx(pred query.Pred, accuracy, udfCost float64, ctx obs.TraceContext) (*optimizer.Decision, error) {
	dec, err := s.opt.Optimize(pred, optimizer.Options{
		Accuracy: accuracy,
		UDFCost:  udfCost,
		Domains:  s.cfg.Domains,
	})
	if err != nil {
		return nil, err
	}
	s.cfg.Obs.EmitSearch(ctx, pred, dec)
	return dec, nil
}

// ReportRun feeds the observed reduction of an executed decision back into
// the optimizer's dependence tracking (A.5); a misestimation also emits an
// optimizer.misestimation event.
func (s *System) ReportRun(dec *optimizer.Decision, observedReduction float64) {
	if s.opt.ObserveRuntime(dec, observedReduction) {
		s.cfg.Obs.EmitMisestimation(obs.TraceContext{}, dec, observedReduction)
	}
}

// ReportAccuracy feeds the realized accuracy of an executed injected
// decision (the fraction of the reference output retained) to the watchdog.
// Decision-level accuracy cannot be attributed to a single PP, so — like
// A.5's dependence flagging — every PP leaf of the decision is charged
// conservatively. K consecutive breaches trip a clause's breaker: its PP
// leaves the corpus (queries fall back to the unmodified, always-correct NoP
// plan) and the clause retrains on fresh labels before re-entering on
// probation.
func (s *System) ReportAccuracy(dec *optimizer.Decision, observed, target float64) {
	s.ReportAccuracyCtx(dec, observed, target, obs.TraceContext{})
}

// ReportAccuracyCtx is ReportAccuracy with the reporting session's trace
// context: watchdog breach/trip/close events carry the session's TraceID, so
// the query that pushed a clause over the edge is identifiable.
func (s *System) ReportAccuracyCtx(dec *optimizer.Decision, observed, target float64, ctx obs.TraceContext) {
	if dec == nil || !dec.Inject {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	pass := observed >= target-s.cfg.Watchdog.Margin
	for _, leaf := range dec.LeafClauses() {
		key, st := s.resolveClause(leaf)
		if st == nil {
			continue // a PP this system does not manage (e.g. preloaded corpus)
		}
		s.reportClause(ctx, key, st, pass)
	}
}

// resolveClause maps a decision leaf to the managed clause it trains under:
// a direct match, or the base clause of a negation-derived PP (§5.6: the
// classifier is shared, so the base clause is what retrains).
func (s *System) resolveClause(leaf string) (string, *clauseState) {
	if st, ok := s.clauses[leaf]; ok {
		return leaf, st
	}
	p, err := query.Parse(leaf)
	if err != nil {
		return "", nil
	}
	cl, ok := p.(*query.Clause)
	if !ok {
		return "", nil
	}
	base := cl.Negate().String()
	if st, ok := s.clauses[base]; ok {
		return base, st
	}
	return "", nil
}

// reportClause advances one clause's breaker state machine, mapping the
// Breaker's transitions to the watchdog's side effects.
func (s *System) reportClause(ctx obs.TraceContext, key string, st *clauseState, pass bool) {
	wasClosed, prevFails := st.cb.State() == BreakerClosed, st.cb.Fails()
	breach := func() {
		s.cfg.Obs.EventCtx(ctx, "watchdog.breach", obs.Attr{Key: "clause", Value: key},
			obs.Attr{Key: "consecutive", Value: strconv.Itoa(prevFails + 1)})
	}
	switch st.cb.Report(pass) {
	case TransitionBreach:
		breach()
	case TransitionTrip:
		// The K-th consecutive miss while closed is both the final breach and
		// the trip; keep the consecutive-miss telemetry complete. A probation
		// miss trips directly without breaching.
		if wasClosed {
			breach()
		}
		s.trip(ctx, key, st)
	case TransitionClose:
		s.cfg.Obs.EventCtx(ctx, "watchdog.close", obs.Attr{Key: "clause", Value: key})
	}
}

// trip reacts to a clause's breaker opening: the PP leaves the corpus so
// decisions fall back to the NoP plan, and the clause queues for retraining
// on fresh labels. (The K-th breach also emits a breach event first so the
// consecutive-miss telemetry stays complete.)
func (s *System) trip(ctx obs.TraceContext, key string, st *clauseState) {
	st.trained = false
	st.lastPP = nil // the breaching model must not seed the retraining
	st.sinceLastTrain = 0
	s.corpus.Remove(key)
	s.Trips++
	s.cfg.Obs.EventCtx(ctx, "watchdog.trip", obs.Attr{Key: "clause", Value: key},
		obs.Attr{Key: "trips_total", Value: strconv.Itoa(s.Trips)})
}

// Breaker returns a clause's watchdog state (BreakerClosed for clauses this
// system does not manage).
func (s *System) Breaker(clause string) BreakerState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.clauses[clause]; ok {
		return st.cb.State()
	}
	return BreakerClosed
}

// TrippedClauses returns the clauses whose breaker is currently open.
func (s *System) TrippedClauses() []string {
	return s.clausesWhere(func(st *clauseState) bool { return st.cb.State() == BreakerOpen })
}

// Corpus exposes the live corpus (e.g. for persistence).
func (s *System) Corpus() *optimizer.Corpus { return s.corpus }
