// Command benchmark is the repository's one committed, repeatable
// measurement: four named workloads, end-to-end metrics from an untraced
// pass, per-layer metrics from a separate traced pass, every output checked
// against an oracle. See README.md in this directory.
//
// The driver's form runs one workload and prints one JSON object last:
//
//	benchmark --workload traf20_steady --seed 42 --seconds 20 --trace 0
//
// Without --workload it runs all four, --repeat times, then (with --trace 1)
// the traced pass, and prints every metric by name with its unit.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// envInfo names the machine and build a result came from.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
}

func environment() envInfo {
	env := envInfo{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: "unknown",
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	return env
}

// driverResult is the one JSON object the driver reads from the last line.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tracePath is where the traced pass writes its spans, relative to the
// checkout root the benchmark is run from.
const tracePath = "benchmark/out/trace.json"

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all four)")
		seed    = flag.Uint64("seed", 42, "seed of the request stream: arrival schedule, query order, segment order")
		seconds = flag.Float64("seconds", 20, "timed seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced pass: per-layer metrics and trace.json")
		repeat  = flag.Int("repeat", 2, "with no --workload: untraced runs of the whole set, to print each metric's spread against its bound")
		quick   = flag.Bool("quick", false, "smoke sizes; the numbers are never to be reported")
	)
	flag.Parse()
	cfg := fullConfig()
	if *quick {
		cfg = quickConfig()
	}
	if *seconds <= 0 || *repeat < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "benchmark: --seconds and --repeat must be positive, and there are no positional arguments")
		os.Exit(2)
	}

	env := environment()
	fmt.Printf("env: %s %s/%s nproc=%d GOMAXPROCS=%d commit=%s seed=%d quick=%v\n",
		env.GoVersion, env.GOOS, env.GOARCH, env.NumCPU, env.GOMAXPROCS, env.Commit, *seed, *quick)

	all := workloads(cfg)
	log := &spanLog{}
	var code int
	if *name != "" {
		code = runOne(all, cfg, *name, *seed, *seconds, *trace == 1, log)
	} else {
		code = runAll(all, cfg, env, *seed, *seconds, *trace == 1, *repeat, log)
	}
	if *trace == 1 {
		if err := writeTrace(tracePath, traceFile{Env: env, Seed: *seed, Spans: log.spans}); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: trace:", err)
			code = 1
		}
	}
	os.Exit(code)
}

// runOne is the driver's form: one workload, one JSON object on the last
// line. An invalid run prints no result: its numbers are not measurements.
func runOne(all []*workload, cfg *config, name string, seed uint64, seconds float64, traced bool, log *spanLog) int {
	var w *workload
	for _, c := range all {
		if c.name == name {
			w = c
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", name)
		return 2
	}
	res, err := runWorkload(w, cfg, seed, seconds, traced, log)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defs := endToEndMetrics
	if traced {
		defs = perLayerMetrics
	}
	report(res, defs)
	if len(res.Invalid) > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: %s is invalid: %s\n", name, strings.Join(res.Invalid, "; "))
		return 1
	}
	dr := driverResult{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		dr.Metrics[d.name] = metricValue{Value: res.Metrics[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(dr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return 1
	}
	return 0
}

// report prints one run's metrics by name with their units, then its guards.
func report(res *runResult, defs []metricDef) {
	pass := "untraced"
	if res.Traced {
		pass = "traced"
	}
	fmt.Printf("== %s (%s, seed %d, %g s): attempted %d, failed %d\n", res.Workload, pass, res.Seed, res.Seconds, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Printf("  %-34s %14.6g %s\n", d.name, res.Metrics[d.name], d.unit)
	}
	for _, g := range res.Guards {
		fmt.Printf("  guard: %s\n", g)
	}
	for _, g := range res.Invalid {
		fmt.Printf("  INVALID: %s\n", g)
	}
}

// runAll runs every workload: repeat untraced passes, then the traced pass.
// It prints each end-to-end metric's spread over the repeats against its
// bound in BENCHMARK.json and, last, one JSON document with everything.
func runAll(all []*workload, cfg *config, env envInfo, seed uint64, seconds float64, traced bool, repeat int, log *spanLog) int {
	code := 0
	var results []*runResult
	run := func(w *workload, tr bool, defs []metricDef) *runResult {
		res, err := runWorkload(w, cfg, seed, seconds, tr, log)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
			return nil
		}
		report(res, defs)
		if res.Failed > 0 || len(res.Invalid) > 0 {
			code = 1
		}
		results = append(results, res)
		return res
	}
	values := map[string][]float64{} // "metric workload" -> one value per repeat
	for r := 0; r < repeat; r++ {
		for _, w := range all {
			if res := run(w, false, endToEndMetrics); res != nil {
				for _, d := range endToEndMetrics {
					key := d.name + " " + w.name
					values[key] = append(values[key], res.Metrics[d.name])
				}
			}
		}
	}
	if traced {
		for _, w := range all {
			run(w, true, perLayerMetrics)
		}
	}
	if repeat > 1 && !reportSpread(all, values) {
		code = 1
	}
	doc := struct {
		Env     envInfo      `json:"env"`
		Quick   bool         `json:"quick"`
		Results []*runResult `json:"results"`
	}{env, cfg.quick, results}
	line, err := json.Marshal(doc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return code
}

// reportSpread prints, per end-to-end metric and workload, the spread of the
// repeats as a share of their median beside the metric's bound in
// BENCHMARK.json, and reports whether every one stayed inside.
func reportSpread(all []*workload, values map[string][]float64) bool {
	var bf struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &bf)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: no bounds to compare against:", err)
		return false
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	fmt.Println("== spread over repeats (share of the median) against the bound in BENCHMARK.json")
	inside := true
	for _, d := range endToEndMetrics {
		for _, w := range all {
			xs := values[d.name+" "+w.name]
			if len(xs) < 2 {
				continue
			}
			sp, verdict := spread(xs), "inside"
			if sp > bounds[d.name] {
				verdict, inside = "OUTSIDE", false
			}
			fmt.Printf("  %-16s %-14s median %12.6g  spread %.4f  bound %.4f  %s\n", d.name, w.name, median(xs), sp, bounds[d.name], verdict)
		}
	}
	return inside
}
