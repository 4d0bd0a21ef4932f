// Command pptrain trains a probabilistic predicate for one clause on a
// chosen synthetic dataset and prints its accuracy-versus-reduction curve —
// a window into §5's construction machinery, including model selection.
//
// Usage:
//
//	pptrain [-dataset traffic|lshtc|coco|imagenet|sun|ucf101]
//	        [-clause "t=SUV" | -category 3]
//	        [-approach ""|Raw+SVM|PCA+KDE|FH+SVM|DNN] [-seed N] [-trace]
//
// For the traffic dataset, -clause takes a predicate clause; for the
// categorical datasets, -category selects the "has category K" query. An
// empty -approach invokes automatic model selection (§5.5). -trace emits a
// training span (approach, wall time, training-set size) to stderr.
package main

import (
	"flag"
	"fmt"
	"os"

	"probpred/internal/blob"
	"probpred/internal/core"
	"probpred/internal/data"
	"probpred/internal/mathx"
	"probpred/internal/obs"
	"probpred/internal/query"
)

func main() {
	dataset := flag.String("dataset", "traffic", "dataset: traffic|lshtc|coco|imagenet|sun|ucf101")
	clause := flag.String("clause", "t=SUV", "clause for the traffic dataset")
	category := flag.Int("category", 0, "category index for categorical datasets")
	approach := flag.String("approach", "", "PP approach; empty = model selection")
	seed := flag.Uint64("seed", 42, "seed")
	saveTo := flag.String("save", "", "save the trained PP to this file (gob)")
	trace := flag.Bool("trace", false, "emit a training span to stderr")
	flag.Parse()

	if err := run(*dataset, *clause, *category, *approach, *seed, *saveTo, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "pptrain:", err)
		os.Exit(1)
	}
}

func run(dataset, clause string, category int, approach string, seed uint64, saveTo string, trace bool) error {
	set, name, err := loadSet(dataset, clause, category, seed)
	if err != nil {
		return err
	}
	rng := mathx.NewRNG(seed ^ 0x7141)
	train, val, test := set.Split(rng, 0.6, 0.2)
	fmt.Printf("dataset=%s clause=%q  blobs=%d dim=%d sparse=%v selectivity=%.3f\n",
		dataset, name, set.Len(), set.Dim(), set.AnySparse(), set.Selectivity())

	var tracer *obs.Tracer
	if trace {
		tracer = obs.New(obs.NewTextSink(os.Stderr))
	}
	cfg := core.TrainConfig{Approach: approach, Seed: seed, AllowDNN: true}
	sp := tracer.Begin(obs.KindTrain, name)
	sp.RowsIn = train.Len()
	pp, err := core.Train(name, train, val, cfg)
	if err != nil {
		sp.SetAttr("error", err.Error())
		tracer.End(&sp)
		return err
	}
	sp.SetAttr("approach", pp.Approach)
	sp.CostVMS = pp.Cost() * float64(pp.TrainN)
	tracer.End(&sp)
	fmt.Printf("trained %s in %s on %d blobs (cost %.2f vms/blob)\n\n",
		pp.Approach, pp.TrainDuration.Round(1e6), pp.TrainN, pp.Cost())

	fmt.Printf("%-10s %12s %12s %12s %12s\n", "target a", "threshold", "est r(a]", "test r", "test acc")
	for _, a := range []float64{1.0, 0.99, 0.95, 0.9, 0.8} {
		m := core.Evaluate(pp, test, a)
		fmt.Printf("%-10.2f %12.4f %12.3f %12.3f %12.3f\n",
			a, pp.Threshold(a), pp.Reduction(a), m.Reduction, m.Accuracy)
	}
	if saveTo != "" {
		f, err := os.Create(saveTo)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pp.Save(f); err != nil {
			return err
		}
		fmt.Printf("\nsaved PP to %s\n", saveTo)
	}
	return nil
}

func loadSet(dataset, clause string, category int, seed uint64) (blob.Set, string, error) {
	switch dataset {
	case "traffic":
		pred, err := query.Parse(clause)
		if err != nil {
			return blob.Set{}, "", err
		}
		blobs := data.Traffic(data.TrafficConfig{Rows: 6000, Seed: seed})
		set, err := data.TrafficSet(blobs, pred)
		return set, clause, err
	case "lshtc":
		d := data.LSHTC(data.LSHTCConfig{Seed: seed})
		return categorySet(d, category)
	case "coco":
		return categorySet(data.COCO(seed), category)
	case "imagenet":
		return categorySet(data.ImageNet(seed), category)
	case "sun":
		return categorySet(data.SUNAttribute(seed), category)
	case "ucf101":
		return categorySet(data.UCF101(data.UCFConfig{Seed: seed}), category)
	}
	return blob.Set{}, "", fmt.Errorf("unknown dataset %q", dataset)
}

func categorySet(d *data.Categorical, category int) (blob.Set, string, error) {
	if category < 0 || category >= d.NumCategories() {
		return blob.Set{}, "", fmt.Errorf("category %d outside [0,%d)", category, d.NumCategories())
	}
	return d.SetFor(category), fmt.Sprintf("%s.cat=%d", d.Name, category), nil
}
