// Package probpred is a Go implementation of probabilistic predicates (PPs)
// for accelerating machine-learning inference queries, reproducing
// "Accelerating Machine Learning Inference with Probabilistic Predicates"
// (Lu, Chowdhery, Kandula, Chaudhuri — SIGMOD 2018).
//
// Inference queries apply expensive UDFs (detectors, feature extractors,
// classifiers) to raw blobs before a relational predicate can run, so
// classic predicate pushdown cannot help. A probabilistic predicate is a
// cheap binary classifier trained per simple predicate clause that runs
// directly on the raw input and discards blobs that will not satisfy the
// query predicate, parametrized by a target accuracy a: the fraction of true
// results the query must retain. PPs never add false positives — the
// original predicate still runs downstream.
//
// The workflow:
//
//	// 1. Label blobs for a simple clause and train a PP.
//	pp, err := probpred.TrainPP("vehType=SUV", trainSet, valSet, probpred.TrainConfig{})
//
//	// 2. Register PPs in a corpus and build an optimizer.
//	corpus := probpred.NewCorpus()
//	corpus.Add(pp)
//	opt := probpred.NewOptimizer(corpus)
//
//	// 3. For each query, let the optimizer pick a PP combination that is a
//	// necessary condition of the (possibly complex, possibly unseen)
//	// predicate and meets the accuracy target.
//	pred, _ := probpred.ParsePredicate("vehType=SUV & vehColor=red")
//	dec, _ := opt.Optimize(pred, probpred.OptimizeOptions{Accuracy: 0.95, UDFCost: u})
//
//	// 4. Run the query with the PP filter injected ahead of the UDFs.
//	plan := probpred.BuildPlan(blobs, dec, procs, pred)
//	res, _ := probpred.RunPlan(plan, probpred.ExecConfig{})
//
// The subpackages under internal implement every substrate: the classifier
// families (linear SVM, KDE over a k-d tree, a feed-forward DNN), dimension
// reduction (PCA, feature hashing), model selection, the predicate language,
// the cost-based optimizer extension, a relational mini-engine with a
// deterministic virtual cost model, synthetic datasets standing in for the
// paper's (LSHTC, COCO, ImageNet, SUNAttribute, UCF101, DETRAC traffic,
// NoScope coral), the comparison baselines, and the experiment harness that
// regenerates every table and figure of the evaluation (see DESIGN.md and
// EXPERIMENTS.md).
package probpred

import (
	"io"

	"probpred/internal/blob"
	"probpred/internal/core"
	"probpred/internal/dimred"
	"probpred/internal/engine"
	"probpred/internal/fault"
	"probpred/internal/mathx"
	"probpred/internal/optimizer"
	"probpred/internal/query"
	"probpred/internal/serve"
	"probpred/internal/udf"
)

// Core data types.
type (
	// Blob is one unstructured input item (image, frame, document).
	Blob = blob.Blob
	// Set is a collection of blobs with binary labels for one clause.
	Set = blob.Set
	// Vec is a dense feature vector.
	Vec = mathx.Vec
	// RNG is the deterministic random number generator used throughout.
	RNG = mathx.RNG
)

// PP construction and evaluation.
type (
	// PP is a trained probabilistic predicate.
	PP = core.PP
	// TrainConfig controls PP construction and model selection.
	TrainConfig = core.TrainConfig
	// Metrics summarizes a PP's accuracy/reduction behaviour on a test set.
	Metrics = core.Metrics
	// Scorer is the pluggable classifier interface (any real-valued
	// function with a threshold can be a PP classifier, §5.3).
	Scorer = core.Scorer
)

// Predicates.
type (
	// Pred is a parsed predicate tree.
	Pred = query.Pred
	// Value is a column value (number or string).
	Value = query.Value
	// Lookup resolves a column name to a value during predicate evaluation.
	Lookup = query.Lookup
)

// Optimizer.
type (
	// Corpus indexes trained PPs by clause.
	Corpus = optimizer.Corpus
	// Optimizer chooses PP combinations for queries.
	Optimizer = optimizer.Optimizer
	// OptimizeOptions configures one optimization call.
	OptimizeOptions = optimizer.Options
	// Decision is the optimizer's plan choice.
	Decision = optimizer.Decision
)

// Execution engine.
type (
	// Plan is a physical operator chain.
	Plan = engine.Plan
	// ExecConfig models the execution environment (stage overhead, retries,
	// telemetry). A run executes on its caller's goroutine; Workers other
	// than 0 or 1 is refused.
	ExecConfig = engine.Config
	// ExecResult carries rows plus virtual cluster time and latency.
	ExecResult = engine.Result
	// Processor is the row-manipulator UDF template of §4, applied to a
	// Batch of rows per call: Apply fills the values of the columns it adds
	// in row order, says how many rows an input yields when it changes
	// cardinality, and blames a failing row with a *RowError.
	Processor = engine.Processor
	// Batch is the rows one Processor call runs over: blob positions plus
	// one value vector per column the plan's processors added.
	Batch = engine.Batch
	// RowError names the row of a Batch a Processor failed at.
	RowError = engine.RowError
	// Row is one engine tuple: a blob plus materialized columns.
	Row = engine.Row
)

// Fault tolerance: production UDFs hit transient errors and stragglers; the
// engine retries them in virtual time and the fault package injects them
// deterministically for experiments.
type (
	// RetryPolicy configures the engine's transient-failure handling
	// (ExecConfig.Retry): attempt budget, exponential backoff charged in
	// virtual ms, and the per-row timeout that turns stragglers into
	// retries.
	RetryPolicy = engine.RetryPolicy
	// FaultInjector decides per-attempt fault outcomes deterministically
	// from a seed.
	FaultInjector = fault.Injector
	// FaultSpec configures one operator's transient and straggler rates.
	FaultSpec = fault.Spec
)

// NewFaultInjector returns an injector with no faults configured.
func NewFaultInjector(seed uint64) *FaultInjector { return fault.NewInjector(seed) }

// MakeFaulty wraps a Processor with injector-driven transient failures and
// stragglers, leaving the wrapped UDF's logic untouched.
func MakeFaulty(p Processor, inj *FaultInjector) Processor { return udf.Faulty(p, inj) }

// IsTransientError reports whether an error from RunPlan is retryable (an
// injected transient fault or an engine row timeout).
func IsTransientError(err error) bool { return engine.IsTransient(err) }

// NewRNG returns a deterministic generator for the seed.
func NewRNG(seed uint64) *RNG { return mathx.NewRNG(seed) }

// FromDense wraps a dense feature vector as a Blob.
func FromDense(id int, v Vec) Blob { return blob.FromDense(id, v) }

// TrainPP constructs a probabilistic predicate for a simple clause from a
// labeled training set and a disjoint validation set. Leave
// TrainConfig.Approach empty for automatic model selection (§5.5).
func TrainPP(clause string, train, val Set, cfg TrainConfig) (*PP, error) {
	return core.Train(clause, train, val, cfg)
}

// Reducer is the pluggable dimension-reduction interface ψ(·) (§5.4).
type Reducer = dimred.Reducer

// NewPP assembles a PP from a custom pre-trained Scorer over raw (dense)
// blob features; see also NewPPWithReducer.
func NewPP(clause, approach string, scorer Scorer, val Set) (*PP, error) {
	return core.NewPP(clause, approach, dimred.Identity{Dim: val.Dim()}, scorer, val)
}

// NewPPWithReducer assembles a PP from custom pre-trained components.
func NewPPWithReducer(clause, approach string, r Reducer, scorer Scorer, val Set) (*PP, error) {
	return core.NewPP(clause, approach, r, scorer, val)
}

// EvaluatePP measures a PP on a labeled test set at target accuracy a.
func EvaluatePP(pp *PP, test Set, a float64) Metrics { return core.Evaluate(pp, test, a) }

// ParsePredicate parses a predicate such as
// "t=SUV & c!=white & (s>60 | s<20)".
func ParsePredicate(s string) (Pred, error) { return query.Parse(s) }

// NewCorpus returns an empty PP corpus.
func NewCorpus() *Corpus { return optimizer.NewCorpus() }

// NewOptimizer returns a query optimizer over the corpus.
func NewOptimizer(c *Corpus) *Optimizer { return optimizer.New(c) }

// BuildPlan assembles the standard inference-query plan: scan the blobs,
// apply the optimizer's PP filter (when dec injects one), run the UDF
// processors, then the original predicate (Figure 2). A nil dec or a
// non-injecting decision yields the unmodified NoP plan (Figure 1).
func BuildPlan(blobs []Blob, dec *Decision, procs []Processor, pred Pred) Plan {
	var f BlobFilter
	if dec != nil && dec.Inject {
		f = dec.Filter
	}
	return engine.InferencePlan(blobs, f, procs, pred)
}

// RunPlan executes a plan under the virtual cluster model.
func RunPlan(p Plan, cfg ExecConfig) (*ExecResult, error) { return engine.Run(p, cfg) }

// ExplainPlan renders a plan's operators with stage boundaries marked.
func ExplainPlan(p Plan) string { return engine.Explain(p) }

// LoadPP reads a PP previously written with (*PP).Save. Custom Scorer or
// Reducer implementations must be gob.Register-ed by the caller; the
// built-in families are registered automatically.
func LoadPP(r io.Reader) (*PP, error) { return core.LoadPP(r) }

// LoadCorpus reads a corpus previously written with (*Corpus).Save.
func LoadCorpus(r io.Reader) (*Corpus, error) { return optimizer.LoadCorpus(r) }

// Concurrent serving: many query sessions over one shared corpus, with a
// canonical-key plan cache (skip repeat optimizer searches; invalidated on
// corpus change) and a sharded LRU memoizing per-(PP, blob) scores across
// sessions. Both caches are transparent — results and virtual costs are
// byte-identical to cache-free execution (see DESIGN.md, "Serving &
// caching").
type (
	// Server admits concurrent query sessions; safe for concurrent Serve.
	Server = serve.Server
	// ServeConfig configures a Server (optimizer, plan builder, accuracy
	// target, admission bound, score-cache mode).
	ServeConfig = serve.Config
	// WorkloadQuery is one query of a replayed workload.
	WorkloadQuery = serve.WorkloadQuery
)

// Plan assembly pieces for plan builders — a UDFCost and a BuildOver(blobs,
// pred, filter) — which BindCorpus fixes to a server's corpus (BuildPlan
// covers the standard scan → PP → UDFs → σ shape; a builder that needs
// joins, grouping or projections assembles operators directly).
type (
	// PlanOperator is one physical operator in a Plan.
	PlanOperator = engine.Operator
	// BlobFilter is the raw-blob filter interface a PP expression compiles
	// to (Decision.Filter implements it).
	BlobFilter = engine.BlobFilter
	// ScanOp sources blobs into the plan.
	ScanOp = engine.Scan
	// PPFilterOp applies a BlobFilter ahead of the UDFs.
	PPFilterOp = engine.PPFilter
	// ProcessOp runs a Processor UDF per row.
	ProcessOp = engine.Process
	// SelectOp applies the original predicate to materialized columns.
	SelectOp = engine.Select
)

// BindCorpus fixes a plan builder to the blobs a server scans, yielding
// ServeConfig.Builder.
func BindCorpus(b serve.CorpusBuilder, blobs []Blob) *serve.BoundCorpus {
	return serve.BindCorpus(b, blobs)
}

// NewServer validates the config and returns a ready server.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// Training-set planning (the batch "outer loop" of §4 Figure 3b, with the
// budgeted PP-selection problem of Appendix A.1).
type (
	// TrainingCandidate is one PP the planner may decide to train.
	TrainingCandidate = optimizer.TrainingCandidate
	// TrainingPlan is the planner's chosen set under the budget.
	TrainingPlan = optimizer.TrainingPlan
)

// InferClauses extracts the simple clauses of a historical workload with
// frequencies, including the forms the wrangler can serve (A.2).
func InferClauses(preds []Pred, domains map[string][]Value) map[string]int {
	return optimizer.InferClauses(preds, domains)
}

// SelectTrainingSet greedily approximates A.1's NP-hard budgeted PP
// selection: maximize summed per-query benefit under a training budget.
func SelectTrainingSet(candidates []TrainingCandidate, budget float64) (*TrainingPlan, error) {
	return optimizer.SelectTrainingSet(candidates, budget)
}
