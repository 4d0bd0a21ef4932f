package probpred

import (
	"bytes"
	"strings"
	"testing"

	"probpred/internal/data"
	"probpred/internal/dimred"
	"probpred/internal/query"
)

// TestPublicAPIWorkflow drives the full documented workflow through the
// facade: generate data, train PPs per clause, optimize a complex predicate,
// run the query with and without the PP filter, compare cost and output.
func TestPublicAPIWorkflow(t *testing.T) {
	blobs := data.Traffic(data.TrafficConfig{Rows: 3000, Seed: 1})
	corpus := NewCorpus()
	for i, clause := range []string{"t=SUV", "t=van", "c=red", "c=white"} {
		pred, err := ParsePredicate(clause)
		if err != nil {
			t.Fatal(err)
		}
		set, err := data.TrafficSet(blobs[:1500], pred)
		if err != nil {
			t.Fatal(err)
		}
		train, val, _ := set.Split(NewRNG(uint64(i)+10), 0.8, 0.2)
		pp, err := TrainPP(clause, train, val, TrainConfig{Approach: "Raw+SVM", Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		corpus.Add(pp)
	}
	opt := NewOptimizer(corpus)
	pred, err := ParsePredicate("(t=SUV | t=van) & c=red")
	if err != nil {
		t.Fatal(err)
	}
	procs := []Processor{fakeCostProc{}, fakeColorProc{}}
	u := 0.0
	for _, p := range procs {
		u += p.Cost()
	}
	dec, err := opt.Optimize(pred, OptimizeOptions{Accuracy: 0.95, UDFCost: u,
		Domains: data.TrafficDomains()})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Inject {
		t.Fatalf("expected injection; candidates=%d", dec.NumCandidates)
	}
	test := blobs[1500:]
	withPP, err := RunPlan(BuildPlan(test, dec, procs, pred), ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	noPP, err := RunPlan(BuildPlan(test, nil, procs, pred), ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if withPP.ClusterTime >= noPP.ClusterTime {
		t.Fatalf("PP did not save cluster time: %v vs %v", withPP.ClusterTime, noPP.ClusterTime)
	}
	if len(noPP.Rows) == 0 {
		t.Fatal("query returned nothing")
	}
	retained := float64(len(withPP.Rows)) / float64(len(noPP.Rows))
	if retained < 0.85 {
		t.Fatalf("retained only %v of output at a=0.95", retained)
	}
}

// fakeColorProc materializes the c column at a declared cost.
type fakeColorProc struct{}

func (fakeColorProc) Name() string  { return "ColorClassifier" }
func (fakeColorProc) Cost() float64 { return 30 }
func (fakeColorProc) ApplyBatch(in, out []Row) ([]Row, error) {
	for i, r := range in {
		v, err := data.TrafficValue(r.Blob, "c")
		if err != nil {
			return out, &RowError{Index: i, Err: err}
		}
		out = append(out, r.With("c", v))
	}
	return out, nil
}

func TestNewPPCustomScorer(t *testing.T) {
	// Any real-valued function can back a PP (§5.3): here, a hand-written
	// rule over the first feature.
	var val Set
	rng := NewRNG(2)
	for i := 0; i < 200; i++ {
		x := rng.NormFloat64()
		val.Append(FromDense(i, Vec{x}), x > 0.5)
	}
	pp, err := NewPP("x>0.5", "custom", firstDimScorer{}, val)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Reduction(1) <= 0 {
		t.Fatalf("custom PP reduction = %v", pp.Reduction(1))
	}
	m := EvaluatePP(pp, val, 1)
	if m.Accuracy != 1 {
		t.Fatalf("validation accuracy at a=1 is %v", m.Accuracy)
	}
}

type firstDimScorer struct{}

func (firstDimScorer) Score(x Vec) float64 { return x[0] }
func (firstDimScorer) Name() string        { return "rule" }
func (firstDimScorer) Cost() float64       { return 0.1 }

func (s firstDimScorer) ScoreBatch(xs []float64, d int, out []float64) {
	for i := range out {
		out[i] = s.Score(xs[i*d : (i+1)*d])
	}
}

func TestParsePredicateErrors(t *testing.T) {
	if _, err := ParsePredicate("t="); err == nil {
		t.Fatal("expected parse error")
	}
	p, err := ParsePredicate("t in {SUV, van}")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.String(), "t=SUV") {
		t.Fatalf("in-set desugaring missing: %s", p)
	}
}

func TestBuildPlanWithoutDecision(t *testing.T) {
	blobs := data.Traffic(data.TrafficConfig{Rows: 10, Seed: 3})
	pred := query.MustParse("t=SUV")
	plan := BuildPlan(blobs, nil, []Processor{fakeCostProc{}}, pred)
	res, err := RunPlan(plan, ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stages != 1 {
		t.Fatalf("stages = %d", res.Stages)
	}
}

func TestFacadePersistenceRoundTrip(t *testing.T) {
	blobs := data.Traffic(data.TrafficConfig{Rows: 1500, Seed: 20})
	pred, err := ParsePredicate("t=van")
	if err != nil {
		t.Fatal(err)
	}
	set, err := data.TrafficSet(blobs, pred)
	if err != nil {
		t.Fatal(err)
	}
	train, val, _ := set.Split(NewRNG(21), 0.7, 0.3)
	pp, err := TrainPP("t=van", train, val, TrainConfig{Approach: "Raw+SVM", Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pp.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Score(blobs[0]) != pp.Score(blobs[0]) {
		t.Fatal("score changed across save/load")
	}
	// Corpus round trip through the facade.
	corpus := NewCorpus()
	corpus.Add(pp)
	var cbuf bytes.Buffer
	if err := corpus.Save(&cbuf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadCorpus(&cbuf)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Size() != 1 {
		t.Fatalf("corpus size = %d", reloaded.Size())
	}
	dec, err := NewOptimizer(reloaded).Optimize(pred, OptimizeOptions{Accuracy: 0.95, UDFCost: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Inject {
		t.Fatal("reloaded corpus should still drive injection")
	}
}

func TestNewPPWithReducerFacade(t *testing.T) {
	var val Set
	rng := NewRNG(23)
	for i := 0; i < 300; i++ {
		v := Vec{rng.NormFloat64() * 5, rng.NormFloat64()}
		val.Append(FromDense(i, v), v[0] > 3)
	}
	pca, err := dimred.FitPCA(val.Blobs, 1, NewRNG(24))
	if err != nil {
		t.Fatal(err)
	}
	pp, err := NewPPWithReducer("x0>3", "custom", pca, pcaSignScorer{}, val)
	if err != nil {
		t.Fatal(err)
	}
	m := EvaluatePP(pp, val, 0.95)
	if m.Accuracy < 0.9 || m.Reduction < 0.3 {
		t.Fatalf("custom-reducer PP weak: %+v", m)
	}
}

type pcaSignScorer struct{}

func (pcaSignScorer) Score(x Vec) float64 {
	// The dominant PC is ±x0; sign-agnostic magnitude works either way
	// because positives sit far out on it.
	if x[0] < 0 {
		return -x[0]
	}
	return x[0]
}
func (pcaSignScorer) Name() string  { return "pcsign" }
func (pcaSignScorer) Cost() float64 { return 0.1 }

func (s pcaSignScorer) ScoreBatch(xs []float64, d int, out []float64) {
	for i := range out {
		out[i] = s.Score(xs[i*d : (i+1)*d])
	}
}

// facadeBuilder is a plan builder over any blob slice with the fake
// classifier UDFs — the README's serving example, end to end.
type facadeBuilder struct{}

func (b facadeBuilder) UDFCost(pred Pred) (float64, error) {
	return fakeCostProc{}.Cost() + fakeColorProc{}.Cost(), nil
}

func (b facadeBuilder) BuildOver(blobs []Blob, pred Pred, filter BlobFilter) (Plan, error) {
	ops := []PlanOperator{&ScanOp{Blobs: blobs}}
	if filter != nil {
		ops = append(ops, &PPFilterOp{F: filter})
	}
	ops = append(ops, &ProcessOp{P: fakeCostProc{}}, &ProcessOp{P: fakeColorProc{}},
		&SelectOp{Pred: pred})
	return Plan{Ops: ops}, nil
}

// TestFacadeServing drives the serving layer through the facade: overlapping
// and respelled queries share one cached plan, and results match a direct
// RunPlan of the same predicate.
func TestFacadeServing(t *testing.T) {
	blobs := data.Traffic(data.TrafficConfig{Rows: 3000, Seed: 40})
	corpus := NewCorpus()
	for i, clause := range []string{"t=SUV", "c=red"} {
		pred := query.MustParse(clause)
		set, err := data.TrafficSet(blobs[:1500], pred)
		if err != nil {
			t.Fatal(err)
		}
		train, val, _ := set.Split(NewRNG(uint64(i)+41), 0.8, 0.2)
		pp, err := TrainPP(clause, train, val, TrainConfig{Approach: "Raw+SVM", Seed: uint64(i) + 41})
		if err != nil {
			t.Fatal(err)
		}
		corpus.Add(pp)
	}
	srv, err := NewServer(ServeConfig{
		Optimizer: NewOptimizer(corpus),
		Builder:   BindCorpus(facadeBuilder{}, blobs[1500:]),
		Accuracy:  0.95,
		Domains:   data.TrafficDomains(),
	})
	if err != nil {
		t.Fatal(err)
	}
	resps, err := srv.Replay([]WorkloadQuery{
		{ID: "Q1", Pred: "t=SUV & c=red"},
		{ID: "Q2", Pred: "c=red & t=SUV"}, // respelling: must hit Q1's plan
		{ID: "Q3", Pred: "t=SUV"},
	}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].PlanKey != resps[1].PlanKey {
		t.Fatalf("respelled query missed the plan cache: %q vs %q",
			resps[0].PlanKey, resps[1].PlanKey)
	}
	st := srv.Stats()
	if st.Sessions != 3 || st.PlanHits+st.PlanMisses != 3 || st.PlanHits < 1 {
		t.Fatalf("stats = %+v", st)
	}
	if len(resps[0].Result.Rows) != len(resps[1].Result.Rows) {
		t.Fatalf("respelled query returned %d rows, original %d",
			len(resps[1].Result.Rows), len(resps[0].Result.Rows))
	}
	// Served result equals a direct facade run of the same decision.
	pred := query.MustParse("t=SUV & c=red")
	direct, err := RunPlan(BuildPlan(blobs[1500:], resps[0].Decision,
		[]Processor{fakeCostProc{}, fakeColorProc{}}, pred), ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Rows) != len(resps[0].Result.Rows) ||
		direct.ClusterTime != resps[0].Result.ClusterTime {
		t.Fatalf("served result diverged from direct run: %d rows / %v vs %d rows / %v",
			len(resps[0].Result.Rows), resps[0].Result.ClusterTime,
			len(direct.Rows), direct.ClusterTime)
	}
}

func TestExplainPlanFacade(t *testing.T) {
	blobs := data.Traffic(data.TrafficConfig{Rows: 5, Seed: 30})
	pred := query.MustParse("t=SUV")
	plan := BuildPlan(blobs, nil, []Processor{fakeCostProc{}}, pred)
	out := ExplainPlan(plan)
	if !strings.Contains(out, "Scan") || !strings.Contains(out, "TypeClassifier") {
		t.Fatalf("ExplainPlan = %q", out)
	}
	if !strings.Contains(out, "stage 1:") {
		t.Fatalf("missing stage marker: %q", out)
	}
}
