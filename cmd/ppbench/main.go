// Command ppbench regenerates the paper's evaluation tables and figures
// (§8 and Appendix B) over the synthetic datasets and prints them.
//
// Usage:
//
//	ppbench [-exp all|fig9,table4,...] [-seed N] [-quick] [-list]
//	        [-json BENCH_pp.json]
//	        [-pprof localhost:6060] [-metrics localhost:9090] [-hold]
//
// The experiment ids match DESIGN.md's per-experiment index. Output of a
// full run is recorded in EXPERIMENTS.md next to the paper's numbers. Every
// number here is virtual cluster cost, seeded and exact; wall clock is
// measured by `bash benchmark/run.sh`.
//
// With -json, every experiment additionally runs under a trace collector and
// a machine-readable report (per-experiment metrics, trace summaries, Go
// runtime metadata) is written to the given path — the perf trajectory file
// CI archives as BENCH_pp.json. With -pprof, a net/http/pprof server runs
// for the duration so long benchmarks can be profiled live. With -metrics,
// the engine runs under a live metrics registry served as Prometheus text on
// http://addr/metrics, alongside /healthz and /debug/pprof/ on the same mux;
// -hold keeps that server up after the experiments finish (for scrapers).
package main

import (
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"probpred/internal/bench"
	"probpred/internal/metrics"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
	seed := flag.Uint64("seed", 42, "experiment seed")
	quick := flag.Bool("quick", false, "use the reduced dataset sizes")
	list := flag.Bool("list", false, "list experiment ids and exit")
	jsonPath := flag.String("json", "", "also write a machine-readable report (BENCH_pp.json) to this path")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) while running")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /healthz and /debug/pprof/ on this address (e.g. localhost:9090) while running")
	hold := flag.Bool("hold", false, "with -metrics or -pprof: keep serving after experiments finish, until interrupted")
	flag.Parse()

	if *list {
		for _, id := range bench.IDs() {
			fmt.Println(id)
		}
		return
	}

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "ppbench: pprof server: %v\n", err)
			}
		}()
		fmt.Printf("pprof: http://%s/debug/pprof/\n\n", *pprofAddr)
	}

	cfg := bench.Config{Seed: *seed, Quick: *quick}
	if *metricsAddr != "" {
		reg := metrics.New()
		cfg.Metrics = reg
		metrics.Serve(*metricsAddr, reg, func(err error) {
			fmt.Fprintf(os.Stderr, "ppbench: metrics server: %v\n", err)
		})
		fmt.Printf("metrics: http://%s/metrics\n\n", *metricsAddr)
	}

	ids := bench.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	var doc *bench.JSONDocument
	if *jsonPath != "" {
		doc = bench.NewJSONDocument(*seed, *quick)
	}
	runStart := time.Now()
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		var rep *bench.Report
		var err error
		if doc != nil {
			var exp bench.JSONExperiment
			rep, exp, err = bench.RunTraced(id, cfg)
			if err == nil {
				doc.Experiments = append(doc.Experiments, exp)
			}
		} else {
			rep, err = bench.Run(id, cfg)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Print(rep)
		fmt.Printf("(regenerated in %s)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if doc != nil {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppbench: %v\n", err)
			os.Exit(1)
		}
		err = doc.Write(f, time.Since(runStart))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote machine-readable report to %s\n", *jsonPath)
	}
	if *hold && (*metricsAddr != "" || *pprofAddr != "") {
		fmt.Println("experiments done; holding diagnostics server open (interrupt to exit)")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
	}
}
