package bench

import (
	"fmt"
	"sync"
	"time"

	"probpred/internal/baseline"
	"probpred/internal/blob"
	"probpred/internal/core"
	"probpred/internal/data"
	"probpred/internal/engine"
	"probpred/internal/fault"
	"probpred/internal/mathx"
	"probpred/internal/obs"
	"probpred/internal/optimizer"
	"probpred/internal/query"
	"probpred/internal/udf"
)

// TRAF20 is the benchmark of §8.2: twenty inference queries over traffic
// surveillance video, mixing equality (E), inequality (I), numeric (N),
// range (R), conjunction (C) and disjunction (D) shapes as in Table 7, with
// one to four clauses per predicate.
var TRAF20 = []struct {
	ID   string
	Pred string
}{
	{"Q1", "t=SUV"},
	{"Q2", "s>60"},
	{"Q3", "c=red"},
	{"Q4", "c!=white"},
	{"Q5", "i=pt303"},
	{"Q6", "s<40"},
	{"Q7", "s>60 & s<65"},
	{"Q8", "t in {sedan, truck}"},
	{"Q9", "c in {red, silver}"},
	{"Q10", "t=van & c=black"},
	{"Q11", "s>50 & t=truck"},
	{"Q12", "o=pt211 & c!=white"},
	{"Q13", "t!=sedan & s>55"},
	{"Q14", "i=pt303 & (o=pt335 | o=pt306)"},
	{"Q15", "t=SUV & s>60 & s<70"},
	{"Q16", "c=white & i=pt401 & s<45"},
	{"Q17", "(t=truck | t=van) & s>55"},
	{"Q18", "t=SUV & c=red & s>60"},
	{"Q19", "c=silver & i=pt306 & o=pt501 & s>40"},
	{"Q20", "t=SUV & c=red & i=pt335 & o=pt211"},
}

// corpusClauses lists the 32 simple clauses the §8.2 corpus trains PPs for:
// every value of the four categorical columns plus speed boundaries — the
// complete coverage discussed with Table 10.
func corpusClauses() []string {
	var out []string
	for _, t := range data.VehicleTypes {
		out = append(out, "t="+t)
	}
	for _, c := range data.VehicleColors {
		out = append(out, "c="+c)
	}
	for _, i := range data.Intersections {
		out = append(out, "i="+i)
		out = append(out, "o="+i)
	}
	for _, v := range []string{"40", "45", "50", "55", "60", "65"} {
		out = append(out, "s>"+v)
	}
	for _, v := range []string{"40", "45", "50", "65", "70"} {
		out = append(out, "s<"+v)
	}
	return out
}

// TrafficHarness holds a generated stream, a trained corpus and the plan
// builders shared by the §8.2 experiments.
type TrafficHarness struct {
	// TrainBlobs is the "first 1 GB" prefix used for PP training (80/20
	// train/validation) and selectivity estimation.
	TrainBlobs []blob.Blob
	// TestBlobs is the stream the benchmark queries run over.
	TestBlobs []blob.Blob
	// Opt is the optimizer over the trained corpus.
	Opt *optimizer.Optimizer
	// CorpusTrainTime is the total wall-clock time the corpus took to train
	// (once per process and seed and scale: see trafficPPs).
	CorpusTrainTime time.Duration
	// PPTrainTime maps clause to its individual training time.
	PPTrainTime map[string]time.Duration
	// Obs receives the optimizer's plan-search spans and counters for
	// queries planned through this harness (set from Config.Obs).
	Obs *obs.Tracer

	seed uint64
}

// trafficKey is every input of one NewTrafficHarness corpus training: the
// seed and the scale.
type trafficKey struct {
	seed  uint64
	quick bool
}

// trafficCorpus is one trained 32-PP corpus: its PPs in corpusClauses order
// and the wall-clock time training them took.
type trafficCorpus struct {
	pps   []*core.PP
	train time.Duration
}

// trafficPPs memoizes NewTrafficHarness's corpus training for the life of
// the process, so the experiments that build a harness for the same seed
// and scale train its 32 SVMs once. Only the PPs are shared, and callers
// only read them; each harness still gets its own blobs, Corpus and
// Optimizer, so A.5 dependence flags and corpus edits stay with the
// experiment that made them. The mutex makes concurrent Run calls safe.
var trafficPPs = struct {
	sync.Mutex
	m map[trafficKey]trafficCorpus
}{m: map[trafficKey]trafficCorpus{}}

// NewTrafficHarness generates the stream and trains the 32-PP corpus (all
// SVMs, as in §8.2); it trains each (seed, scale) once (trafficPPs).
func NewTrafficHarness(cfg Config) (*TrafficHarness, error) {
	h, err := NewTrafficHarnessWithCorpus(cfg, optimizer.NewCorpus())
	if err != nil {
		return nil, err
	}
	key := trafficKey{cfg.Seed, cfg.Quick}
	trafficPPs.Lock()
	defer trafficPPs.Unlock()
	tc, ok := trafficPPs.m[key]
	if !ok {
		start := time.Now()
		for i, clause := range corpusClauses() {
			pp, err := h.TrainPP(clause, uint64(i))
			if err != nil {
				return nil, err
			}
			tc.pps = append(tc.pps, pp)
		}
		tc.train = time.Since(start)
		trafficPPs.m[key] = tc
	}
	for _, pp := range tc.pps {
		h.PPTrainTime[pp.Clause] = pp.TrainDuration
		h.Opt.Corpus().Add(pp)
	}
	h.CorpusTrainTime = tc.train
	return h, nil
}

// NewTrafficHarnessWithCorpus builds the harness around an existing corpus
// (e.g. one reloaded from disk), generating the same stream but skipping
// training.
func NewTrafficHarnessWithCorpus(cfg Config, corpus *optimizer.Corpus) (*TrafficHarness, error) {
	trainRows := cfg.scale(3000, 1500)
	testRows := cfg.scale(20000, 4000)
	all := data.Traffic(data.TrafficConfig{Rows: trainRows + testRows, Seed: cfg.Seed})
	return &TrafficHarness{
		TrainBlobs:  all[:trainRows],
		TestBlobs:   all[trainRows:],
		Opt:         optimizer.New(corpus),
		PPTrainTime: map[string]time.Duration{},
		Obs:         cfg.Obs,
		seed:        cfg.Seed,
	}, nil
}

// TrainPP trains one SVM PP for a simple clause on the training prefix.
func (h *TrafficHarness) TrainPP(clause string, salt uint64) (*core.PP, error) {
	pred, err := query.Parse(clause)
	if err != nil {
		return nil, fmt.Errorf("bench: corpus clause %q: %w", clause, err)
	}
	set, err := data.TrafficSet(h.TrainBlobs, pred)
	if err != nil {
		return nil, err
	}
	train, val, _ := set.Split(mathx.NewRNG(h.seed^salt), 0.8, 0.2)
	return core.Train(clause, train, val, core.TrainConfig{
		Approach: "Raw+SVM", Seed: h.seed + salt,
		SVM: svmConfigForTraffic(),
	})
}

// Selectivity measures a predicate's pass rate on the training prefix (what
// a real system would estimate from history).
func (h *TrafficHarness) Selectivity(pred query.Pred) (float64, error) {
	set, err := data.TrafficSet(h.TrainBlobs, pred)
	if err != nil {
		return 0, err
	}
	return set.Selectivity(), nil
}

// trafficBuilder is the traffic harness's one plan builder, and its
// serve.CorpusBuilder: Scan → [PP] → the detector plus one UDF per column the
// predicate references → σ (engine.InferencePlan). The scanned blob slice is
// injected per call — that is what a sharded server partitions. With inj
// set, every UDF runs under the injector's fault model.
type trafficBuilder struct {
	h   *TrafficHarness
	inj *fault.Injector
}

// UDFCost is the per-blob cost u of pred's UDF pipeline: the work a PP can
// short-circuit.
func (b trafficBuilder) UDFCost(pred query.Pred) (float64, error) {
	procs, err := udf.TrafficPipeline(pred, 0, b.h.seed)
	if err != nil {
		return 0, err
	}
	return udf.PipelineCost(procs), nil
}

// BuildOver builds pred's plan over blobs; a nil filter runs unmodified.
func (b trafficBuilder) BuildOver(blobs []blob.Blob, pred query.Pred, filter engine.BlobFilter) (engine.Plan, error) {
	procs, err := udf.TrafficPipeline(pred, 0, b.h.seed)
	if err != nil {
		return engine.Plan{}, err
	}
	if b.inj != nil {
		procs = udf.FaultyPipeline(procs, b.inj)
	}
	return engine.InferencePlan(blobs, filter, procs, pred), nil
}

// plan optimizes pred under opts and builds its plan over the test stream,
// the PP filter injected when the decision says so.
func (b trafficBuilder) plan(pred query.Pred, opts optimizer.Options) (engine.Plan, *optimizer.Decision, error) {
	dec, err := b.h.Opt.Optimize(pred, opts)
	if err != nil {
		return engine.Plan{}, nil, err
	}
	var f engine.BlobFilter
	if dec.Inject {
		f = dec.Filter
	}
	plan, err := b.BuildOver(b.h.TestBlobs, pred, f)
	return plan, dec, err
}

// options returns the optimizer options for pred at accuracy: the UDF cost u
// of its pipeline, the traffic domains and the harness's tracer.
func (h *TrafficHarness) options(pred query.Pred, accuracy float64) (optimizer.Options, error) {
	u, err := trafficBuilder{h: h}.UDFCost(pred)
	if err != nil {
		return optimizer.Options{}, err
	}
	return optimizer.Options{Accuracy: accuracy, UDFCost: u, Domains: data.TrafficDomains(), Obs: h.Obs}, nil
}

// NoPPlan builds the unmodified plan (the Optasia-like NoP baseline): scan,
// detector, every UDF the predicate needs, then the σ. It also returns the
// per-blob UDF cost u.
func (h *TrafficHarness) NoPPlan(pred query.Pred) (engine.Plan, float64, error) {
	b := trafficBuilder{h: h}
	u, err := b.UDFCost(pred)
	if err != nil {
		return engine.Plan{}, 0, err
	}
	plan, err := b.BuildOver(h.TestBlobs, pred, nil)
	return plan, u, err
}

// PPPlan builds the PP-injected plan at the given accuracy target, returning
// the plan and the optimizer decision.
func (h *TrafficHarness) PPPlan(pred query.Pred, accuracy float64) (engine.Plan, *optimizer.Decision, error) {
	opts, err := h.options(pred, accuracy)
	if err != nil {
		return engine.Plan{}, nil, err
	}
	return trafficBuilder{h: h}.plan(pred, opts)
}

// SortPPlan builds the Deshpande et al. [17] baseline: predicate clauses
// (top-level conjuncts) ordered by cost/(1−selectivity), each as its own
// serialized stage.
func (h *TrafficHarness) SortPPlan(pred query.Pred) (engine.Plan, error) {
	conjuncts := topLevelConjuncts(pred)
	var clauses []baseline.SortPClause
	for _, c := range conjuncts {
		sel, err := h.Selectivity(c)
		if err != nil {
			return engine.Plan{}, err
		}
		// Each clause lists every UDF its columns require; baseline.Plan
		// deduplicates UDFs already materialized by earlier stages.
		var udfs []engine.Processor
		for _, col := range query.Columns(c) {
			p, err := udf.TrafficUDFFor(col, 0, h.seed)
			if err != nil {
				return engine.Plan{}, err
			}
			udfs = append(udfs, p)
		}
		clauses = append(clauses, baseline.SortPClause{Pred: c, UDFs: udfs, PassRate: sel})
	}
	return baseline.Plan(h.TestBlobs, []engine.Processor{udf.VehDetector{}}, clauses), nil
}

// topLevelConjuncts splits a predicate into its top-level AND factors.
func topLevelConjuncts(pred query.Pred) []query.Pred {
	if and, ok := pred.(*query.And); ok {
		return and.Kids
	}
	return []query.Pred{pred}
}
