package main

import (
	"fmt"

	"probpred/internal/bench"
	"probpred/internal/blob"
	"probpred/internal/core"
	"probpred/internal/data"
	"probpred/internal/dnn"
	"probpred/internal/engine"
	"probpred/internal/mathx"
	"probpred/internal/optimizer"
	"probpred/internal/query"
	"probpred/internal/svm"
	"probpred/internal/udf"
)

// config holds every size, rate and limit of the benchmark. None is
// calibrated at run time: parent and change see the same data, the same
// admission width and the same offered rates, so a difference between two
// runs is a difference between two programs. The admission width and client
// count are sized for the 2-core reference box: the load generator never
// holds more goroutines in flight than admission allows plus the dispatcher.
type config struct {
	trainRows     int // corpus training prefix
	scanRows      int // traf20_steady, shard_scan
	adhocScanRows int // adhoc_cold
	adhocPreds    int // > default plan cache (128): every request is a plan miss
	segmentRows   int // stream_heavy
	poolRows      int // never-seen blobs stream_heavy cuts segments from
	warmSegments  int // stream_heavy segments ingested during set-up
	dnnEpochs     int

	rounds        int     // rounds a run is cut into; every phase has one slice in each
	steadyQPS     float64 // traf20_steady open-loop rate (Poisson)
	segmentsPerS  float64 // stream_heavy open-loop rate (fixed)
	setupRepeats  int     // set-ups per untraced run; setup_s is their median
	refSampleStep int     // stream_heavy: every n-th scheduled segment gets a PP reference
	quick         bool    // smoke sizes: numbers are never reported, sample guards are off
}

const (
	// dataSeed generates the blobs, trains the corpus and draws the ad-hoc
	// predicate set. It is a constant of the benchmark like its sizes: the
	// exact counts (cost, recall, pass share) are then the same for every
	// --seed, which drives the request stream only.
	dataSeed = 42

	accuracy      = 0.95
	maxConcurrent = 2 // admission width
	clients       = 2 // closed-loop clients
	execWorkers   = 1
	shards        = 2
	replicas      = 2
	// minRecallRows: a recall read from fewer reference rows is a coin
	// flip, not a rate, and is left out of recall_mean / recall_min.
	minRecallRows = 20
)

func fullConfig() *config {
	return &config{
		trainRows: 3000, scanRows: 20000, adhocScanRows: 1000, adhocPreds: 512,
		segmentRows: 150, poolRows: 150000, warmSegments: 4, dnnEpochs: 10,
		rounds: 5, steadyQPS: 20, segmentsPerS: 20, setupRepeats: 3, refSampleStep: 8,
	}
}

// quickConfig is the smoke test's: the same code paths over data small
// enough that all four workloads finish in about two seconds.
func quickConfig() *config {
	return &config{
		trainRows: 600, scanRows: 2000, adhocScanRows: 400, adhocPreds: 136,
		segmentRows: 50, poolRows: 6000, warmSegments: 2, dnnEpochs: 1,
		rounds: 1, steadyQPS: 20, segmentsPerS: 20, setupRepeats: 1, refSampleStep: 2,
		quick: true,
	}
}

// corpusKind picks the PP approach per clause.
type corpusKind int

const (
	// svmCorpus trains every clause as Raw+SVM (§8.2).
	svmCorpus corpusKind = iota
	// mixedCorpus trains t=* as DNN, c=* as PCA+KDE and the rest as Raw+SVM,
	// so stream_heavy exercises all three score kernels.
	mixedCorpus
)

// corpusClauses lists the 32 simple clauses of the §8.2 corpus (the
// vocabulary of internal/bench.TRAF20): every value of the four categorical
// columns plus the speed boundaries.
func corpusClauses() []string {
	var out []string
	for _, t := range data.VehicleTypes {
		out = append(out, "t="+t)
	}
	for _, c := range data.VehicleColors {
		out = append(out, "c="+c)
	}
	for _, i := range data.Intersections {
		out = append(out, "i="+i, "o="+i)
	}
	for _, v := range []string{"40", "45", "50", "55", "60", "65"} {
		out = append(out, "s>"+v)
	}
	for _, v := range []string{"40", "45", "50", "65", "70"} {
		out = append(out, "s<"+v)
	}
	return out
}

func approachFor(kind corpusKind, clause string) string {
	if kind == mixedCorpus {
		switch clause[0] {
		case 't':
			return "DNN"
		case 'c':
			return "PCA+KDE"
		}
	}
	return "Raw+SVM"
}

// fixture is one workload's generated inputs and trained PP corpus.
type fixture struct {
	// scan is the blob stream the served queries run over; fresh is the
	// never-scanned tail stream_heavy cuts its segments from.
	scan, fresh []blob.Blob
	opt         *optimizer.Optimizer
	// pps holds one trained PP per approach for the direct score-kernel
	// timings of the traced pass.
	pps map[string]*core.PP
}

// newFixture generates trainRows+scanRows+freshRows traffic blobs from
// dataSeed and trains the 32-clause corpus on the first trainRows.
func newFixture(cfg *config, kind corpusKind, scanRows, freshRows int) (*fixture, error) {
	const seed uint64 = dataSeed
	all := data.Traffic(data.TrafficConfig{Rows: cfg.trainRows + scanRows + freshRows, Seed: seed})
	train := all[:cfg.trainRows]
	f := &fixture{
		scan:  all[cfg.trainRows : cfg.trainRows+scanRows],
		fresh: all[cfg.trainRows+scanRows:],
		pps:   map[string]*core.PP{},
	}
	corpus := optimizer.NewCorpus()
	for i, clause := range corpusClauses() {
		pred, err := query.Parse(clause)
		if err != nil {
			return nil, fmt.Errorf("corpus clause %q: %w", clause, err)
		}
		set, err := data.TrafficSet(train, pred)
		if err != nil {
			return nil, fmt.Errorf("corpus clause %q: %w", clause, err)
		}
		salt := uint64(i)
		tr, val, _ := set.Split(mathx.NewRNG(seed^salt), 0.8, 0.2)
		approach := approachFor(kind, clause)
		pp, err := core.Train(clause, tr, val, core.TrainConfig{
			Approach: approach,
			Seed:     seed + salt,
			SVM:      svm.Config{Epochs: 15},
			DNN:      dnn.Config{Hidden: []int{128, 64}, Epochs: cfg.dnnEpochs},
		})
		if err != nil {
			return nil, fmt.Errorf("train %q: %w", clause, err)
		}
		corpus.Add(pp)
		if _, ok := f.pps[approach]; !ok {
			f.pps[approach] = pp
		}
	}
	f.opt = optimizer.New(corpus)
	return f, nil
}

// builder is the benchmark's serve.CorpusBuilder: Scan → PPFilter →
// detector + one UDF per referenced column → Select.
type builder struct{}

func (builder) UDFCost(pred query.Pred) (float64, error) {
	procs, err := udf.TrafficPipeline(pred, 0, dataSeed)
	if err != nil {
		return 0, err
	}
	return udf.PipelineCost(procs), nil
}

func (builder) BuildOver(blobs []blob.Blob, pred query.Pred, filter engine.BlobFilter) (engine.Plan, error) {
	procs, err := udf.TrafficPipeline(pred, 0, dataSeed)
	if err != nil {
		return engine.Plan{}, err
	}
	ops := []engine.Operator{&engine.Scan{Blobs: blobs}}
	if filter != nil {
		ops = append(ops, &engine.PPFilter{F: filter})
	}
	for _, p := range procs {
		ops = append(ops, &engine.Process{P: p})
	}
	ops = append(ops, &engine.Select{Pred: pred})
	return engine.Plan{Ops: ops}, nil
}

// namedPred is one query of a workload's mix.
type namedPred struct {
	id   string
	text string
	pred query.Pred
}

func parsePreds(ids, texts []string) ([]namedPred, error) {
	out := make([]namedPred, len(texts))
	for i, t := range texts {
		p, err := query.Parse(t)
		if err != nil {
			return nil, fmt.Errorf("predicate %s (%q): %w", ids[i], t, err)
		}
		out[i] = namedPred{id: ids[i], text: t, pred: p}
	}
	return out, nil
}

// traf20 parses the TRAF20 mix.
func traf20() ([]namedPred, error) {
	ids := make([]string, len(bench.TRAF20))
	texts := make([]string, len(bench.TRAF20))
	for i, q := range bench.TRAF20 {
		ids[i], texts[i] = q.ID, q.Pred
	}
	return parsePreds(ids, texts)
}

// standingQueries is stream_heavy's fixed query set.
func standingQueries() ([]namedPred, error) {
	texts := []string{
		"t=SUV", "c=red", "s>60", "t=van & c=black", "t=SUV & c=red & s>60",
		"c in {red, silver}", "t in {sedan, truck}", "(t=truck | t=van) & s>55",
	}
	ids := make([]string, len(texts))
	for i := range ids {
		ids[i] = fmt.Sprintf("S%d", i+1)
	}
	return parsePreds(ids, texts)
}

// adhocPredicates emits n distinct 3–4-clause predicates in TRAF20 shapes
// over the trained vocabulary: a conjunction over distinct columns in which
// one factor may be a two-value disjunction. Odd indices are forced to the
// 4-clause or disjunctive shapes (the ones whose plan search costs
// milliseconds), so at least half of the set is. Distinctness is by
// canonical plan key, which is what the plan cache keys on.
func adhocPredicates(n int) ([]namedPred, error) {
	rng := mathx.NewRNG(dataSeed ^ 0xad0c)
	cats := map[string][]string{
		"t": data.VehicleTypes, "c": data.VehicleColors,
		"i": data.Intersections, "o": data.Intersections,
	}
	speed := []string{"s>40", "s>45", "s>50", "s>55", "s>60", "s>65", "s<40", "s<45", "s<50", "s<65", "s<70"}
	factor := func(col string, disj bool) string {
		if col == "s" {
			return speed[rng.Intn(len(speed))]
		}
		vals := cats[col]
		a := rng.Intn(len(vals))
		if !disj {
			return col + "=" + vals[a]
		}
		b := (a + 1 + rng.Intn(len(vals)-1)) % len(vals)
		return "(" + col + "=" + vals[a] + " | " + col + "=" + vals[b] + ")"
	}
	seen := map[string]bool{}
	var ids, texts []string
	for len(texts) < n {
		// Odd indices take a heavy shape: four factors, or three with the
		// first categorical factor widened to a disjunction.
		nf, disj := 3, false
		if len(texts)%2 == 1 {
			if rng.Intn(2) == 0 {
				nf = 4
			} else {
				disj = true
			}
		}
		cols := []string{"t", "c", "s", "i", "o"}
		perm := rng.Perm(len(cols))
		text := ""
		for k := 0; k < nf; k++ {
			col := cols[perm[k]]
			if k > 0 {
				text += " & "
			}
			text += factor(col, disj && col != "s")
			if col != "s" {
				disj = false
			}
		}
		pred, err := query.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("ad-hoc predicate %q: %w", text, err)
		}
		key := optimizer.CanonicalKey(pred)
		if seen[key] {
			continue
		}
		seen[key] = true
		ids = append(ids, fmt.Sprintf("A%d", len(texts)+1))
		texts = append(texts, text)
	}
	return parsePreds(ids, texts)
}
