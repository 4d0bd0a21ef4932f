package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"probpred/internal/obs"
)

// JSONSchema identifies the BENCH_pp.json document format; bump on
// incompatible changes so downstream tooling can dispatch.
const JSONSchema = "probpred-bench/v1"

// JSONDocument is the machine-readable benchmark report `ppbench -json`
// writes (BENCH_pp.json): per-experiment headline metrics, trace summaries,
// raw report lines, and enough environment metadata to compare runs across
// machines and Go versions.
type JSONDocument struct {
	Schema      string `json:"schema"`
	GeneratedAt string `json:"generated_at"`
	Seed        uint64 `json:"seed"`
	Quick       bool   `json:"quick"`
	// WallMS is the whole run's real duration.
	WallMS float64 `json:"wall_ms"`
	// Runtime snapshots the Go runtime at the end of the run (versions,
	// CPU counts, allocation and GC totals, scheduler latency).
	Runtime     obs.RuntimeSnapshot `json:"runtime"`
	Experiments []JSONExperiment    `json:"experiments"`
}

// JSONExperiment is one experiment's machine-readable record.
type JSONExperiment struct {
	ID     string  `json:"id"`
	Title  string  `json:"title"`
	WallMS float64 `json:"wall_ms"`
	// Metrics are the experiment's headline numbers (speedups, latencies,
	// accuracies) — the same values Lines formats for humans.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Trace aggregates the engine/optimizer spans the experiment emitted:
	// virtual cost and wall time per operator.
	Trace *obs.Summary `json:"trace,omitempty"`
	Lines []string     `json:"lines"`
}

// NewJSONDocument starts a document for one ppbench run.
func NewJSONDocument(seed uint64, quick bool) *JSONDocument {
	return &JSONDocument{
		Schema:      JSONSchema,
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Seed:        seed,
		Quick:       quick,
	}
}

// RunTraced executes one experiment with a fresh trace collector attached
// and returns both the human report and its JSON record.
func RunTraced(id string, cfg Config) (*Report, JSONExperiment, error) {
	col := obs.NewCollector()
	cfg.Obs = obs.New(col)
	start := time.Now()
	rep, err := Run(id, cfg)
	if err != nil {
		return nil, JSONExperiment{}, err
	}
	wall := time.Since(start)
	sum := col.Summary()
	exp := JSONExperiment{
		ID:      rep.ID,
		Title:   rep.Title,
		WallMS:  float64(wall.Nanoseconds()) / 1e6,
		Metrics: rep.Metrics,
		Lines:   rep.Lines,
	}
	if sum.Spans > 0 || sum.Events > 0 {
		exp.Trace = &sum
	}
	return rep, exp, nil
}

// Write finalizes the document (runtime snapshot, total wall time) and
// writes it as indented JSON, verifying the encoding round-trips before any
// byte reaches w.
func (d *JSONDocument) Write(w io.Writer, wall time.Duration) error {
	d.WallMS = float64(wall.Nanoseconds()) / 1e6
	d.Runtime = obs.TakeRuntimeSnapshot()
	buf, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encoding JSON report: %w", err)
	}
	if !json.Valid(buf) {
		return fmt.Errorf("bench: generated JSON report is malformed")
	}
	var probe JSONDocument
	if err := json.Unmarshal(buf, &probe); err != nil {
		return fmt.Errorf("bench: JSON report does not round-trip: %w", err)
	}
	if _, err := w.Write(append(buf, '\n')); err != nil {
		return fmt.Errorf("bench: writing JSON report: %w", err)
	}
	return nil
}
