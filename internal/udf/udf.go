// Package udf provides the simulated expensive machine-learning UDFs that
// stand in for the paper's detectors, feature extractors and classifiers
// (§2, §7). Each UDF implements one of the engine's templates (§4) and
// declares a virtual per-row cost; its output is decoded from the
// generator's ground truth with a configurable error rate, which mirrors
// the paper's observation that "the UDFs can often be imperfect" (§8.1).
//
// Only UDFs read ground truth. PPs never do — they see raw blob features.
//
// Every processor here is safe for concurrent Apply calls on disjoint
// batches, which concurrent sessions sharing a plan's processors make: a
// stateful error process is locked once per batch, and FaultyProcessor's
// attempt counts under their own lock.
package udf

import (
	"fmt"
	"sync"

	"probpred/internal/blob"
	"probpred/internal/data"
	"probpred/internal/engine"
	"probpred/internal/mathx"
	"probpred/internal/query"
)

// TrafficAttribute is a Processor that materializes one predicate column of
// the traffic workload (vehicle type, color, speed, route endpoints) from a
// vehicle-detection row, at a declared virtual cost.
type TrafficAttribute struct {
	// Col is the output column ("t", "c", "s", "i", "o").
	Col string
	// UDFName is the display name (e.g. "TypeClassifier").
	UDFName string
	// CostMS is the virtual per-row cost.
	CostMS float64
	// ErrRate is the probability the UDF mislabels a row (categorical:
	// uniform wrong value; numeric: Gaussian perturbation).
	ErrRate float64
	// Seed drives the error process.
	Seed uint64

	mu  sync.Mutex
	rng *mathx.RNG
}

// Name implements engine.Processor.
func (u *TrafficAttribute) Name() string { return u.UDFName }

// Cost implements engine.Processor.
func (u *TrafficAttribute) Cost() float64 { return u.CostMS }

// Apply implements engine.Processor: it fills the column's values in row
// order, the column's truth position resolved once per batch.
func (u *TrafficAttribute) Apply(b engine.Batch) error {
	if u.ErrRate > 0 {
		// The error process is stateful; holding the lock for the batch
		// keeps Apply safe when concurrent sessions share the processor,
		// and draws in row order.
		u.mu.Lock()
		defer u.mu.Unlock()
		if u.rng == nil {
			u.rng = mathx.NewRNG(u.Seed ^ 0xe44)
		}
	}
	col := data.NewTrafficColumn(u.Col)
	vals := b.Column(u.Col)
	for i := range vals {
		v, err := col.Value(b.Blob(i))
		if err != nil {
			return &engine.RowError{Index: i, Err: fmt.Errorf("udf: %s: %w", u.UDFName, err)}
		}
		if u.ErrRate > 0 && u.rng.Bernoulli(u.ErrRate) {
			v = u.perturb(v)
		}
		vals[i] = v
	}
	return nil
}

// perturb returns a wrong-but-plausible value.
func (u *TrafficAttribute) perturb(v query.Value) query.Value {
	if v.IsNum {
		return query.Number(mathx.Clamp(v.Num+u.rng.NormFloat64()*5, 0, 80))
	}
	var domain []string
	switch u.Col {
	case "t":
		domain = data.VehicleTypes
	case "c":
		domain = data.VehicleColors
	default:
		domain = data.Intersections
	}
	for {
		cand := domain[u.rng.Intn(len(domain))]
		if cand != v.Str {
			return query.Str(cand)
		}
	}
}

// Default virtual costs of the traffic UDF pipeline, set so that a typical
// query's downstream UDF cost per row lands in the 23–85 ms range of
// Table 9.
const (
	VehDetectorCost     = 15
	TypeClassifierCost  = 25
	ColorClassifierCost = 22
	SpeedEstimatorCost  = 18
	RouteTrackerCost    = 30
)

// VehDetector is the ingestion Processor of the running example (§1): it
// represents vehicle-bounding-box extraction. On the synthetic stream each
// blob already is one detection, so it is a costly pass-through.
type VehDetector struct{}

// Name implements engine.Processor.
func (VehDetector) Name() string { return "VehDetector" }

// Cost implements engine.Processor.
func (VehDetector) Cost() float64 { return VehDetectorCost }

// Apply implements engine.Processor: every row passes unchanged.
func (VehDetector) Apply(engine.Batch) error { return nil }

// TrafficUDFFor returns the Processor that materializes col, with the
// repository's default cost for that attribute and the given error rate.
func TrafficUDFFor(col string, errRate float64, seed uint64) (engine.Processor, error) {
	spec := map[string]struct {
		name string
		cost float64
	}{
		"t": {"TypeClassifier", TypeClassifierCost},
		"c": {"ColorClassifier", ColorClassifierCost},
		"s": {"SpeedEstimator", SpeedEstimatorCost},
		"i": {"RouteTrackerFrom", RouteTrackerCost},
		"o": {"RouteTrackerTo", RouteTrackerCost},
	}
	sp, ok := spec[col]
	if !ok {
		return nil, fmt.Errorf("udf: no traffic UDF for column %q", col)
	}
	return &TrafficAttribute{Col: col, UDFName: sp.name, CostMS: sp.cost,
		ErrRate: errRate, Seed: seed}, nil
}

// TrafficPipeline builds the UDF chain a predicate needs: the detector plus
// one attribute UDF per referenced column, in catalog order. The summed
// Cost of the returned processors is the u that PPs can short-circuit.
func TrafficPipeline(pred query.Pred, errRate float64, seed uint64) ([]engine.Processor, error) {
	procs := []engine.Processor{VehDetector{}}
	cols := query.Columns(pred)
	for _, col := range cols {
		p, err := TrafficUDFFor(col, errRate, seed+uint64(len(procs)))
		if err != nil {
			return nil, err
		}
		procs = append(procs, p)
	}
	return procs, nil
}

// PipelineCost sums the virtual per-row costs of a processor chain.
func PipelineCost(procs []engine.Processor) float64 {
	total := 0.0
	for _, p := range procs {
		total += p.Cost()
	}
	return total
}

// CategoryClassifier is a Processor for the categorical datasets (§7 Cases
// 1-3): it emits a binary column "catK" that is 1 iff the blob carries
// category K, reading membership from the dataset with an error rate.
type CategoryClassifier struct {
	Dataset *data.Categorical
	// Cat is the category index.
	Cat int
	// CostMS is the virtual per-row cost of the feature extractor +
	// classifier pair (𝒞(ℱ(x)) in §1).
	CostMS float64
	// ErrRate is the probability of flipping the output bit.
	ErrRate float64
	// Seed drives the error process.
	Seed uint64

	mu  sync.Mutex
	rng *mathx.RNG
}

// ColName returns the output column name for category k.
func ColName(k int) string { return fmt.Sprintf("cat%d", k) }

// Name implements engine.Processor.
func (c *CategoryClassifier) Name() string {
	return fmt.Sprintf("%s.Classifier%d", c.Dataset.Name, c.Cat)
}

// Cost implements engine.Processor.
func (c *CategoryClassifier) Cost() float64 { return c.CostMS }

// Apply implements engine.Processor: it fills the category's column in row
// order.
func (c *CategoryClassifier) Apply(b engine.Batch) error {
	if c.ErrRate > 0 {
		// As for TrafficAttribute: the stateful error process is locked once
		// per batch, which makes concurrent sessions' batches safe.
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.rng == nil {
			c.rng = mathx.NewRNG(c.Seed ^ 0xcc)
		}
	}
	vals := b.Column(ColName(c.Cat))
	for i := range vals {
		id := b.Blob(i).ID
		if id < 0 || id >= len(c.Dataset.Blobs) {
			return &engine.RowError{Index: i, Err: fmt.Errorf("udf: blob %d outside dataset %s", id, c.Dataset.Name)}
		}
		member := c.Dataset.Members[c.Cat][id]
		if c.ErrRate > 0 && c.rng.Bernoulli(c.ErrRate) {
			member = !member
		}
		v := 0.0
		if member {
			v = 1
		}
		vals[i] = query.Number(v)
	}
	return nil
}

// FrameObjectDetector is the reference DNN object detector of Appendix B:
// it reads the coral stream's ground truth at a very high virtual cost
// (NoScope's reference CNN runs at ~1 frame per 30-60 ms on a GPU; scaled
// here relative to the other costs).
type FrameObjectDetector struct {
	// CostMS is the virtual per-frame cost. Zero selects 500.
	CostMS float64
}

// Name implements engine.Processor.
func (FrameObjectDetector) Name() string { return "RefDNN" }

// Cost implements engine.Processor.
func (d FrameObjectDetector) Cost() float64 {
	if d.CostMS == 0 {
		return 500
	}
	return d.CostMS
}

// Apply implements engine.Processor: it fills the object column in frame
// order, the truth position resolved once per batch.
func (d FrameObjectDetector) Apply(b engine.Batch) error {
	object := blob.NewTruthCol("object")
	vals := b.Column("object")
	for i := range vals {
		f := b.Blob(i)
		v, ok := object.Val(f)
		if !ok {
			return &engine.RowError{Index: i, Err: fmt.Errorf("udf: frame %d has no object truth", f.ID)}
		}
		vals[i] = query.Number(v)
	}
	return nil
}
