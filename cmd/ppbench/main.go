// Command ppbench regenerates the paper's evaluation tables and figures
// (§8 and Appendix B) over the synthetic datasets and prints them.
//
// Usage:
//
//	ppbench [-exp all|fig9,table4,...] [-seed N] [-quick] [-list]
//	        [-metrics localhost:9090] [-hold]
//
// The experiment ids match DESIGN.md's per-experiment index. Output of a
// full run is recorded in EXPERIMENTS.md next to the paper's numbers.
//
// Stdout is exact: virtual cluster cost, reductions and accuracies, the same
// bytes on every run and machine for a given seed and scale. Stderr carries
// what is not: measured training and scoring times, the serve and obs
// replays' interleaving-dependent counters and latencies, random trace IDs,
// and each experiment's "(regenerated in …)" line. The quick run at the
// default seed is the golden internal/bench's TestPaperGolden checks; after
// a change that moves an exact number on purpose, regenerate it with
//
//	go run ./cmd/ppbench -quick > internal/bench/testdata/quick_seed42.golden
//
// and review the diff. Wall clock proper is measured by
// `bash benchmark/run.sh`.
//
// With -metrics, the servers the experiments build (serve, stream) record
// their serving telemetry in a live metrics registry served as Prometheus
// text on http://addr/metrics, alongside /healthz and /debug/pprof/ on the
// same mux; -hold keeps that server up after the experiments finish (for
// scrapers and profilers).
package main

import (
	"flag"
	"fmt"
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
	metricsAddr := flag.String("metrics", "", "serve /metrics, /healthz and /debug/pprof/ on this address (e.g. localhost:9090) while running")
	hold := flag.Bool("hold", false, "with -metrics: keep serving after experiments finish, until interrupted")
	flag.Parse()

	if *list {
		for _, id := range bench.IDs() {
			fmt.Println(id)
		}
		return
	}

	cfg := bench.Config{Seed: *seed, Quick: *quick}
	if *metricsAddr != "" {
		reg := metrics.New()
		cfg.Metrics = reg
		metrics.Serve(*metricsAddr, reg, func(err error) {
			fmt.Fprintf(os.Stderr, "ppbench: metrics server: %v\n", err)
		})
		fmt.Fprintf(os.Stderr, "metrics: http://%s/metrics\n\n", *metricsAddr)
	}

	ids := bench.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		rep, err := bench.Run(id, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		rep.Print(os.Stdout, os.Stderr, time.Since(start))
	}
	if *hold && *metricsAddr != "" {
		fmt.Fprintln(os.Stderr, "experiments done; holding diagnostics server open (interrupt to exit)")
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
	}
}
