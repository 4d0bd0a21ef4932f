package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"probpred/internal/blob"
	"probpred/internal/core"
	"probpred/internal/engine"
	"probpred/internal/mathx"
	"probpred/internal/metrics"
)

// Hotpath measures the PP scoring hot path: wall-clock ns/row, rows/sec and
// allocations/row of the scalar Score loop versus the batch ScoreBatch path,
// per approach, on dense synthetic blobs. It is not a paper experiment — it
// tracks the simulator's own throughput (DESIGN.md "Scoring hot path") and
// backs BENCH_hotpath.json, which CI archives so batch-path regressions show
// up as a diff.

// HotpathPath is one measured scoring path (scalar or batch).
type HotpathPath struct {
	NSPerRow     float64 `json:"ns_per_row"`
	RowsPerSec   float64 `json:"rows_per_sec"`
	AllocsPerRow float64 `json:"allocs_per_row"`
}

// HotpathResult compares the two paths for one PP approach.
type HotpathResult struct {
	Approach string      `json:"approach"`
	Rows     int         `json:"rows"`
	Dim      int         `json:"dim"`
	Scalar   HotpathPath `json:"scalar"`
	Batch    HotpathPath `json:"batch"`
	// Speedup is scalar ns/row over batch ns/row (>1 means batch is faster).
	Speedup float64 `json:"speedup"`
	// AllocRatio is batch allocs/row over scalar allocs/row (<1 means the
	// batch path allocates less). Zero when the scalar path itself does not
	// allocate.
	AllocRatio float64 `json:"alloc_ratio"`
}

// HotpathDoc is the machine-readable report written to BENCH_hotpath.json.
type HotpathDoc struct {
	GeneratedAt string          `json:"generated_at"`
	GoVersion   string          `json:"go_version"`
	GOOS        string          `json:"goos"`
	GOARCH      string          `json:"goarch"`
	NumCPU      int             `json:"num_cpu"`
	GOMAXPROCS  int             `json:"gomaxprocs"`
	Seed        uint64          `json:"seed"`
	Quick       bool            `json:"quick"`
	Results     []HotpathResult `json:"results"`
}

// Write serders the document as indented JSON.
func (d *HotpathDoc) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// hotpathSet generates n dense gaussian blobs of dimension dim, labeled by a
// random hyperplane (selectivity ≈ 0.5) so every classifier family has
// structure to learn.
func hotpathSet(n, dim int, seed uint64) blob.Set {
	rng := mathx.NewRNG(seed)
	w := make(mathx.Vec, dim)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	var set blob.Set
	for i := 0; i < n; i++ {
		v := make(mathx.Vec, dim)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		set.Append(blob.FromDense(i, v), mathx.Dot(w, v) >= 0)
	}
	return set
}

// hotpathSpec is one approach × dataset combination the hot path is measured
// on. FH+SVM runs at the LSHTC-like vocabulary dimensionality (data.LSHTCConfig
// defaults to 2000) — the high-dimensional regime feature hashing exists for,
// and where the batch path's per-batch hash table pays off most; the heavier
// families use smaller inputs so the measurement stays fast.
type hotpathSpec struct {
	approach string
	dim      int
}

func hotpathSpecs() []hotpathSpec {
	return []hotpathSpec{
		{"FH+SVM", 2000},
		{"PCA+KDE", 64},
		{"DNN", 64},
	}
}

// measureScoring times fn (which scores all rows once per call) until minDur
// has elapsed, returning per-row wall time, throughput and heap allocations.
// Mallocs is monotonic, so GC during the loop does not distort the count.
func measureScoring(rows int, minDur time.Duration, fn func()) HotpathPath {
	fn() // warm up pools and lazily-built tables outside the measurement
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	total := 0
	var elapsed time.Duration
	for {
		fn()
		total += rows
		if elapsed = time.Since(start); elapsed >= minDur {
			break
		}
	}
	runtime.ReadMemStats(&after)
	ns := float64(elapsed.Nanoseconds())
	return HotpathPath{
		NSPerRow:     ns / float64(total),
		RowsPerSec:   float64(total) / elapsed.Seconds(),
		AllocsPerRow: float64(after.Mallocs-before.Mallocs) / float64(total),
	}
}

// scalarScorePath hides the batch interfaces so the scalar loop is measured
// even though every built-in approach implements them.
func scalarScorePath(pp *core.PP, blobs []blob.Blob, out []float64) func() {
	return func() {
		for i, b := range blobs {
			out[i] = pp.Score(b)
		}
	}
}

// RunHotpath trains one PP per approach and measures both scoring paths,
// returning the JSON document and a rendered report.
func RunHotpath(cfg Config) (*HotpathDoc, *Report, error) {
	rep := &Report{ID: "hotpath", Title: "Scoring hot path: scalar vs batch (ns/row, rows/sec, allocs/row)"}
	doc := &HotpathDoc{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Seed:        cfg.Seed,
		Quick:       cfg.Quick,
	}
	trainN := cfg.scale(1200, 600)
	scoreN := cfg.scale(8192, 2048)
	minDur := time.Duration(cfg.scale(300, 25)) * time.Millisecond
	tb := &table{header: []string{"approach", "dim", "path", "ns/row", "rows/sec", "allocs/row", "speedup", "allocs ratio"}}
	for _, spec := range hotpathSpecs() {
		pp, blobs, err := hotpathPP(spec, trainN, scoreN, cfg.Seed)
		if err != nil {
			return nil, nil, err
		}
		out := make([]float64, len(blobs))
		scalar := measureScoring(len(blobs), minDur, scalarScorePath(pp, blobs, out))
		batch := measureScoring(len(blobs), minDur, func() { pp.ScoreBatch(blobs, out) })
		res := HotpathResult{
			Approach: spec.approach, Rows: len(blobs), Dim: spec.dim,
			Scalar: scalar, Batch: batch,
			Speedup: scalar.NSPerRow / batch.NSPerRow,
		}
		if scalar.AllocsPerRow > 0 {
			res.AllocRatio = batch.AllocsPerRow / scalar.AllocsPerRow
		}
		doc.Results = append(doc.Results, res)
		tb.add(spec.approach, fmt.Sprintf("%d", spec.dim), "scalar",
			f1(scalar.NSPerRow), fk(scalar.RowsPerSec), f2(scalar.AllocsPerRow), "", "")
		tb.add(spec.approach, fmt.Sprintf("%d", spec.dim), "batch",
			f1(batch.NSPerRow), fk(batch.RowsPerSec), f2(batch.AllocsPerRow),
			f2(res.Speedup)+"x", f3(res.AllocRatio))
		rep.metric(spec.approach+".speedup", res.Speedup)
		rep.metric(spec.approach+".batch_rows_per_sec", batch.RowsPerSec)
		rep.metric(spec.approach+".alloc_ratio", res.AllocRatio)
	}
	// Engine-level row: the full PPFilter operator (gather + TestBatch +
	// compaction + cost accounting) under parallel execution, without and
	// with a live metrics registry, to expose instrumentation cost.
	res, err := hotpathFilterResult(cfg, scoreN, minDur)
	if err != nil {
		return nil, nil, err
	}
	doc.Results = append(doc.Results, res)
	tb.add(res.Approach, fmt.Sprintf("%d", res.Dim), "no registry",
		f1(res.Scalar.NSPerRow), fk(res.Scalar.RowsPerSec), f2(res.Scalar.AllocsPerRow), "", "")
	tb.add(res.Approach, fmt.Sprintf("%d", res.Dim), "registry",
		f1(res.Batch.NSPerRow), fk(res.Batch.RowsPerSec), f2(res.Batch.AllocsPerRow),
		f2(res.Speedup)+"x", f3(res.AllocRatio))
	// >1 means the registry made the operator faster (noise); ~1 is the goal.
	rep.metric("filter.metrics_overhead", 1/res.Speedup)
	rep.Lines = tb.render()
	return doc, rep, nil
}

// Hotpath is the registry wrapper: it runs the measurement and returns just
// the report (cmd/ppbench -hotpath also writes the JSON document).
func Hotpath(cfg Config) (*Report, error) {
	_, rep, err := RunHotpath(cfg)
	return rep, err
}

// hotpathPP trains one PP for a spec and generates the larger scoring set
// from the same distribution.
func hotpathPP(spec hotpathSpec, trainN, scoreN int, seed uint64) (*core.PP, []blob.Blob, error) {
	set := hotpathSet(trainN, spec.dim, seed^uint64(spec.dim)*0x51)
	rng := mathx.NewRNG(seed ^ 0x407)
	train, val, _ := set.Split(rng, 0.7, 0.3)
	cfg := core.TrainConfig{Approach: spec.approach, Seed: seed}
	if spec.approach == "DNN" {
		cfg.DNN.Epochs = 10 // scoring speed, not quality, is under test
	}
	pp, err := core.Train("hotpath."+spec.approach, train, val, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("bench: hotpath training %s: %w", spec.approach, err)
	}
	score := hotpathSet(scoreN, spec.dim, seed^0xbeef)
	return pp, score.Blobs, nil
}

// hotpathFilter adapts a PP at a fixed accuracy to engine.BlobFilter, like
// optimizer.Compiled's single-leaf case.
type hotpathFilter struct {
	pp   *core.PP
	th   float64
	cost float64
}

func (f *hotpathFilter) Name() string { return f.pp.Clause }

func (f *hotpathFilter) TestBatch(blobs []blob.Blob, pass []bool, cost []float64, _ *engine.CacheTally) {
	scores := make([]float64, len(blobs))
	f.pp.ScoreBatch(blobs, scores)
	for i, s := range scores {
		pass[i] = s >= f.th
		cost[i] = f.cost
	}
}

// hotpathFilterResult measures the PPFilter operator end to end (Scan +
// PPFilter under engine.Run, Workers=4), first without and then with a live
// metrics registry: the registryless numbers sit in the Scalar column and
// the with-registry numbers in Batch, so the per-row cost of instrumentation
// is a visible delta.
func hotpathFilterResult(cfg Config, scoreN int, minDur time.Duration) (HotpathResult, error) {
	spec := hotpathSpecs()[0] // FH+SVM
	pp, blobs, err := hotpathPP(spec, cfg.scale(1200, 600), scoreN, cfg.Seed)
	if err != nil {
		return HotpathResult{}, err
	}
	plan := engine.Plan{Ops: []engine.Operator{
		&engine.Scan{Blobs: blobs},
		&engine.PPFilter{F: &hotpathFilter{pp: pp, th: pp.Threshold(0.95), cost: pp.Cost()}},
	}}
	run := func(ecfg engine.Config) func() {
		return func() {
			if _, err := engine.Run(plan, ecfg); err != nil {
				panic(err) // plan has no failing operators
			}
		}
	}
	bare := measureScoring(len(blobs), minDur, run(engine.Config{Workers: 4}))
	withReg := measureScoring(len(blobs), minDur, run(engine.Config{Workers: 4, Metrics: metrics.New()}))
	res := HotpathResult{
		Approach: "PPFilter(FH+SVM,workers=4,metrics)", Rows: len(blobs), Dim: spec.dim,
		Scalar: bare, Batch: withReg,
		Speedup: bare.NSPerRow / withReg.NSPerRow,
	}
	if bare.AllocsPerRow > 0 {
		res.AllocRatio = withReg.AllocsPerRow / bare.AllocsPerRow
	}
	return res, nil
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// fk renders a throughput in thousands of rows per second.
func fk(v float64) string { return fmt.Sprintf("%.0fk", v/1000) }
