// Online surveillance: the §4 online loop on a live traffic stream. The
// system starts cold — every query runs unmodified, and its UDF outputs
// label the raw frames. Once enough labels accumulate, PPs train themselves
// and the same queries start running behind injected filters. The example
// reports the cost of the same query issued repeatedly as the stream flows.
//
//	go run ./examples/onlinesurveillance
package main

import (
	"fmt"
	"log"

	probpred "probpred"
	"probpred/datasets"
	"probpred/online"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	stream := datasets.Traffic(datasets.TrafficConfig{Rows: 12000, Seed: 77})
	sys, err := online.New(online.Config{
		Clauses: []string{
			"t=SUV", "t=van", "t=truck", "t=sedan",
			"c=red", "c=white", "s>60", "s<65",
		},
		MinLabels: 800,
		Train:     probpred.TrainConfig{Approach: "Raw+SVM"},
		Domains:   datasets.TrafficDomains(),
		Seed:      1,
	})
	if err != nil {
		return err
	}

	pred, err := probpred.ParsePredicate("t=SUV & c=red")
	if err != nil {
		return err
	}
	procs, u, err := datasets.TrafficPipeline(pred, 2)
	if err != nil {
		return err
	}

	const batch = 2000
	fmt.Printf("query: %s  (issued every %d frames; accuracy target 0.95)\n\n", pred, batch)
	fmt.Printf("%-12s %-8s %10s %9s   %s\n", "frames", "PPs", "cluster", "speed-up", "plan")
	for start := 0; start+batch <= len(stream); start += batch {
		window := stream[start : start+batch]
		dec, err := sys.Decide(pred, 0.95, u)
		if err != nil {
			return err
		}
		res, err := probpred.RunPlan(probpred.BuildPlan(window, dec, procs, pred), probpred.ExecConfig{})
		if err != nil {
			return err
		}
		noPP, err := probpred.RunPlan(probpred.BuildPlan(window, nil, procs, pred), probpred.ExecConfig{})
		if err != nil {
			return err
		}
		planDesc := "as-is (cold start: collecting labels)"
		if dec.Inject {
			planDesc = dec.Expr
			// Feed the observed reduction back for dependence tracking
			// (A.5): the fraction of frames the filter actually dropped.
			for _, op := range res.PerOp {
				if op.PPFilter {
					sys.ReportRun(dec, 1-float64(op.RowsOut)/float64(op.RowsIn))
				}
			}
		}
		// The unmodified run labels the stream for the online trainer
		// (in a real system this is the plan's side output, Figure 3b).
		for _, b := range window {
			if err := sys.Observe(b, datasets.TrafficLookup(b)); err != nil {
				return err
			}
		}
		fmt.Printf("%6d-%-6d %-8d %9.0fs %8.2fx   %s\n",
			start, start+batch, len(sys.TrainedClauses()),
			res.ClusterTime/1000, noPP.ClusterTime/res.ClusterTime, planDesc)
	}
	fmt.Printf("\ntrained clauses: %v (after %d trainings)\n", sys.TrainedClauses(), sys.Trainings)
	return nil
}
