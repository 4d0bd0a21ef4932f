package data

import (
	"fmt"
	"math"

	"probpred/internal/blob"
	"probpred/internal/mathx"
	"probpred/internal/query"
)

// Attribute catalogs for the DETRAC-like traffic stream (§7 Case 4). The
// marginal frequencies are calibrated so that the benchmark predicates land
// near the selectivities the paper reports: t∈{SUV,van} ≈ 0.41 (Table 10),
// c≠white ≈ 0.67 and s>60∧s<65 ≈ 0.05 (Table 9).
var (
	// VehicleTypes lists the DETRAC vehicle types.
	VehicleTypes = []string{"sedan", "SUV", "truck", "van"}
	// VehicleColors lists the manually-annotated colors of §7.
	VehicleColors = []string{"white", "black", "silver", "red", "other"}
	// Intersections lists the camera intersections referenced by TRAF-20
	// route predicates (i = from, o = to).
	Intersections = []string{"pt211", "pt303", "pt306", "pt335", "pt401", "pt501"}

	vehicleTypeProbs  = []float64{0.45, 0.25, 0.14, 0.16}
	vehicleColorProbs = []float64{0.33, 0.25, 0.20, 0.12, 0.10}
	intersectionProbs = []float64{0.22, 0.20, 0.16, 0.18, 0.14, 0.10}
)

// TrafficColumns lists the five predicate columns generated by the traffic
// UDFs (§8.2): vehicle type t, color c, speed s, from-intersection i,
// to-intersection o.
var TrafficColumns = []string{"t", "c", "s", "i", "o"}

// TrafficConfig shapes the traffic vehicle-row generator.
type TrafficConfig struct {
	// Rows is the number of vehicle detections. Zero selects 5000.
	Rows int
	// Drift adds a slow sensor/illumination drift: the feature embedding
	// shifts along a fixed random direction, growing linearly from zero at
	// the start of the stream to Drift at the end. Ground-truth attributes
	// are unaffected — only the raw features move, so stale PP thresholds
	// lose calibration (the scenario behind PP.Recalibrate). Zero disables.
	Drift float64
	// Seed drives generation.
	Seed uint64
}

const (
	trafficDim      = 32
	typeEmbedDim    = 8  // dims 0..7
	colorEmbedDim   = 8  // dims 8..15
	speedEmbedDim   = 4  // dims 16..19
	routeEmbedStart = 20 // dims 20..25 from, 26..31 to
)

// trafficKeys are the ground-truth columns of a traffic blob: vehicle type,
// color, speed, and the from/to intersections.
var trafficKeys = blob.NewTruthKeys("t", "c", "s", "i", "o")

// Traffic generates the vehicle-detection stream: each blob is a "frame
// crop" whose 32 raw features are noisy embeddings of the ground-truth
// attributes stored in Truth. The embeddings are roughly linearly separable
// per attribute value with deliberate overlap, matching §8.2 where all 32
// corpus PPs are SVMs with reductions between ~10% and ~60%. Products are
// written float64(a*b), here and in the helpers, so no target fuses one
// with the add after it and the blobs are the same bits on every GOARCH.
func Traffic(cfg TrafficConfig) []blob.Blob {
	if cfg.Rows == 0 {
		cfg.Rows = 5000
	}
	shared := mathx.NewRNG(cfg.Seed ^ 0x7a441c)
	typeDirs := unitDirections(len(VehicleTypes), typeEmbedDim, shared)
	colorDirs := unitDirections(len(VehicleColors), colorEmbedDim, shared)
	// Route matrix: to-intersection conditioned on from-intersection, a
	// stochastic perturbation of the marginals.
	routes := make([][]float64, len(Intersections))
	for i := range routes {
		routes[i] = make([]float64, len(Intersections))
		for j := range routes[i] {
			routes[i][j] = intersectionProbs[j] * (0.5 + shared.Float64())
		}
		routes[i][i] *= 0.2 // rarely loop back to the same intersection
	}
	// Drift pushes the type embedding away from the SUV direction — the
	// way changing illumination erodes a specific visual attribute — so a
	// stale t=SUV PP sees its positives' scores sink over the stream.
	driftDir := make(mathx.Vec, trafficDim)
	copy(driftDir[0:typeEmbedDim], typeDirs[1]) // index 1 = SUV
	mathx.Scale(-1/mathx.Norm2(driftDir), driftDir)
	rng := mathx.NewRNG(cfg.Seed ^ 0x7a44)
	blobs := make([]blob.Blob, cfg.Rows)
	truth := trafficKeys.Rows(cfg.Rows)
	for n := 0; n < cfg.Rows; n++ {
		typ := rng.Choice(vehicleTypeProbs)
		col := rng.Choice(vehicleColorProbs)
		from := rng.Choice(intersectionProbs)
		to := rng.Choice(routes[from])
		speed := sampleSpeed(rng)
		v := make(mathx.Vec, trafficDim)
		embed(v[0:typeEmbedDim], typeDirs[typ], 1.5, 0.6, rng)
		embed(v[typeEmbedDim:typeEmbedDim+colorEmbedDim], colorDirs[col], 1.5, 0.6, rng)
		s := speed / 80
		speedPart := v[16:20]
		speedPart[0] = s + float64(rng.NormFloat64()*0.06)
		speedPart[1] = float64(s*s) + float64(rng.NormFloat64()*0.06)
		speedPart[2] = math.Sin(math.Pi*s) + float64(rng.NormFloat64()*0.06)
		speedPart[3] = 1 - s + float64(rng.NormFloat64()*0.06)
		oneHot(v[routeEmbedStart:routeEmbedStart+6], from, 1.2, 0.4, rng)
		oneHot(v[routeEmbedStart+6:routeEmbedStart+12], to, 1.2, 0.4, rng)
		if cfg.Drift != 0 {
			progress := float64(n) / float64(cfg.Rows)
			mathx.Axpy(cfg.Drift*progress, driftDir, v)
		}
		b := blob.FromDense(n, v)
		b.Truth = &truth[n]
		copy(b.Truth.Vals, []float64{float64(typ), float64(col), speed, float64(from), float64(to)})
		blobs[n] = b
	}
	return blobs
}

// sampleSpeed draws from a three-component mixture: cruising N(40,10),
// fast N(55,8), and a speeding tail N(68,6), clipped to [0, 80].
func sampleSpeed(rng *mathx.RNG) float64 {
	var s float64
	switch u := rng.Float64(); {
	case u < 0.70:
		s = 40 + float64(rng.NormFloat64()*10)
	case u < 0.95:
		s = 55 + float64(rng.NormFloat64()*8)
	default:
		s = 68 + float64(rng.NormFloat64()*6)
	}
	return mathx.Clamp(s, 0, 80)
}

func unitDirections(n, dim int, rng *mathx.RNG) []mathx.Vec {
	dirs := make([]mathx.Vec, n)
	for i := range dirs {
		d := make(mathx.Vec, dim)
		for j := range d {
			d[j] = rng.NormFloat64()
		}
		mathx.Scale(1/mathx.Norm2(d), d)
		dirs[i] = d
	}
	return dirs
}

func embed(dst, dir mathx.Vec, gain, noise float64, rng *mathx.RNG) {
	for j := range dst {
		dst[j] = float64(gain*dir[j]) + float64(rng.NormFloat64()*noise)
	}
}

func oneHot(dst mathx.Vec, idx int, gain, noise float64, rng *mathx.RNG) {
	for j := range dst {
		dst[j] = rng.NormFloat64() * noise
	}
	dst[idx] += gain
}

// TrafficValue converts a traffic blob's ground-truth attribute into a
// predicate value: categorical columns become strings via the catalogs,
// speed stays numeric.
func TrafficValue(b blob.Blob, col string) (query.Value, error) {
	c := NewTrafficColumn(col)
	return c.Value(b)
}

// TrafficColumn converts one traffic attribute across a batch of blobs: its
// catalog is chosen once, and its truth position found once per key list
// (blob.TruthCol). Value(b) is TrafficValue(b, col), error text included.
type TrafficColumn struct {
	col     string
	truth   blob.TruthCol
	catalog []string
	numeric bool
}

// NewTrafficColumn returns the converter of col.
func NewTrafficColumn(col string) TrafficColumn {
	c := TrafficColumn{col: col, truth: blob.NewTruthCol(col)}
	switch col {
	case "t":
		c.catalog = VehicleTypes
	case "c":
		c.catalog = VehicleColors
	case "i", "o":
		c.catalog = Intersections
	case "s":
		c.numeric = true
	}
	return c
}

// Value converts b's attribute.
func (c *TrafficColumn) Value(b blob.Blob) (query.Value, error) {
	raw, ok := c.truth.Val(b)
	switch {
	case !ok:
		return query.Value{}, fmt.Errorf("data: blob %d has no attribute %q", b.ID, c.col)
	case c.catalog != nil:
		return query.Str(c.catalog[int(raw)]), nil
	case c.numeric:
		return query.Number(raw), nil
	}
	return query.Value{}, fmt.Errorf("data: unknown traffic column %q", c.col)
}

// TrafficLookup adapts a traffic blob's ground truth to a predicate Lookup.
func TrafficLookup(b blob.Blob) query.Lookup {
	return func(col string) (query.Value, bool) {
		v, err := TrafficValue(b, col)
		if err != nil {
			return query.Value{}, false
		}
		return v, true
	}
}

// TrafficSet labels a slice of traffic blobs against a predicate evaluated
// on the ground-truth attributes, producing the PP training input. Its
// labels are those of pred.Eval(TrafficLookup(b)) for each blob b in turn,
// but each column's converter is made once per call, and one lookup serves
// every blob.
func TrafficSet(blobs []blob.Blob, pred query.Pred) (blob.Set, error) {
	cols := make([]TrafficColumn, len(TrafficColumns))
	for k, col := range TrafficColumns {
		cols[k] = NewTrafficColumn(col)
	}
	var b blob.Blob
	lookup := func(col string) (query.Value, bool) {
		for k := range cols {
			if cols[k].col == col {
				v, err := cols[k].Value(b)
				return v, err == nil
			}
		}
		return query.Value{}, false
	}
	s := blob.Set{Blobs: make([]blob.Blob, len(blobs)), Labels: make([]bool, len(blobs))}
	for i := range blobs {
		b = blobs[i]
		ok, err := pred.Eval(lookup)
		if err != nil {
			return blob.Set{}, fmt.Errorf("data: labeling blob %d: %w", b.ID, err)
		}
		s.Blobs[i], s.Labels[i] = b, ok
	}
	return s, nil
}

// TrafficDomains returns the value domain of every traffic column, used by
// the optimizer's wrangler (A.2) and by implication checking. Speed is
// discretized to the 5 mph boundaries the corpus trains PPs for.
func TrafficDomains() map[string][]query.Value {
	d := map[string][]query.Value{}
	for _, t := range VehicleTypes {
		d["t"] = append(d["t"], query.Str(t))
	}
	for _, c := range VehicleColors {
		d["c"] = append(d["c"], query.Str(c))
	}
	for _, i := range Intersections {
		d["i"] = append(d["i"], query.Str(i))
		d["o"] = append(d["o"], query.Str(i))
	}
	for s := 0.0; s <= 80; s += 5 {
		d["s"] = append(d["s"], query.Number(s))
	}
	return d
}
