package bench

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"probpred/internal/engine"
	"probpred/internal/query"
)

var quick = Config{Seed: 42, Quick: true}

// quickReports memoizes quickReport. Tests in this package do not run in
// parallel, so the map needs no lock.
var quickReports = map[string]struct {
	rep *Report
	err error
}{}

// quickReport runs experiment id at quick once per test binary and shares
// the report: TestPaperGolden and the shape tests read the same run. The
// report is read-only.
func quickReport(t *testing.T, id string) *Report {
	t.Helper()
	r, ok := quickReports[id]
	if !ok {
		r.rep, r.err = Run(id, quick)
		quickReports[id] = r
	}
	if r.err != nil {
		t.Fatalf("%s: %v", id, r.err)
	}
	return r.rep
}

func TestTableFormatter(t *testing.T) {
	tb := &table{header: []string{"a", "bb"}}
	tb.add("xx", "y")
	lines := tb.render()
	if len(lines) != 3 {
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "a ") {
		t.Fatalf("header = %q", lines[0])
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	_, err := Run("nope", quick)
	if err == nil {
		t.Fatal("expected error")
	}
	// The error lists the known ids in registry order: the paper's tables
	// and figures, then the scenario arcs and the accuracy audit. The
	// retired wall-clock experiments (now benchmark/ workloads) error like
	// any unknown id.
	known := "(known: [table2 fig9 table4 table5 table6 table7 fig10 table8 table9 table10 " +
		"table12 table13 fig15 coverage drift ablation-budget ablation-order ablation-k " +
		"ablation-model faults serve adapt obs stream audit])"
	if !strings.Contains(err.Error(), known) {
		t.Errorf("error %q, want the id list %s", err, known)
	}
	for _, id := range []string{"hotpath", "latency", "shard"} {
		if _, err := Run(id, quick); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
			t.Errorf("Run(%q) = %v, want an unknown-experiment error", id, err)
		}
	}
}

func TestTrafficHarness(t *testing.T) {
	h, err := NewTrafficHarness(quick)
	if err != nil {
		t.Fatal(err)
	}
	if h.Opt.Corpus().Size() != 32 {
		t.Fatalf("corpus size = %d, want 32 (as in §8.2)", h.Opt.Corpus().Size())
	}
	if len(h.TrainBlobs) == 0 || len(h.TestBlobs) == 0 {
		t.Fatal("empty harness")
	}
	// Every TRAF-20 predicate must parse and be coverable enough to run.
	for _, q := range TRAF20 {
		pred := query.MustParse(q.Pred)
		plan, dec, err := h.PPPlan(pred, 0.95)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if len(plan.Ops) < 3 {
			t.Fatalf("%s: degenerate plan", q.ID)
		}
		if dec.NumCandidates == 0 {
			t.Errorf("%s: no PP candidates — corpus should cover every predicate", q.ID)
		}
	}
}

func TestFig10Shapes(t *testing.T) {
	h, err := NewTrafficHarness(quick)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fig10With(h, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Lines) < len(TRAF20) {
		t.Fatalf("report too short: %d lines", len(rep.Lines))
	}
	// Headline shape checks on a couple of queries.
	pred := query.MustParse("t=SUV & c=red & i=pt335 & o=pt211") // Q20, very selective
	nopPlan, _, err := h.NoPPlan(pred)
	if err != nil {
		t.Fatal(err)
	}
	nop, err := engine.Run(nopPlan, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	plan, dec, err := h.PPPlan(pred, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Inject {
		t.Fatal("Q20 should inject PPs")
	}
	pp, err := engine.Run(plan, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	speedup := nop.ClusterTime / pp.ClusterTime
	if speedup < 1.5 {
		t.Fatalf("Q20 speed-up = %.2fx, want >= 1.5x for a 4-clause selective predicate", speedup)
	}
	// A shape check on one seed, not the accuracy contract: the audit
	// (ppbench -exp audit, EXPERIMENTS.md) finds a 4-leaf compound's recall
	// at a=0.95 as low as 0.78 across 20 full-size seeds, because leaf
	// accuracies multiply as if the clauses were independent. A floor above
	// that would fail on some seeds; the statistical statement is the
	// audit's.
	if acc := retained(nop, pp); acc < 0.75 {
		t.Fatalf("Q20 accuracy = %v at a=0.95 (4 PPs compound)", acc)
	}
}

func TestFig10AccuracyAtA1(t *testing.T) {
	// At a=1 the validation-set guarantee is exact; on the disjoint test
	// stream the retained fraction must still be very high. The floor stays
	// loose on purpose: the audit (ppbench -exp audit, EXPERIMENTS.md) finds
	// a=1 met on only 3-15 % of runs, single-clause recall down to 0.95 and
	// compound recall down to 0.83 across 20 full-size seeds, and quick size
	// calibrates on half as many validation positives.
	h, err := NewTrafficHarness(quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, qid := range []string{"Q1", "Q4", "Q10"} {
		var predStr string
		for _, q := range TRAF20 {
			if q.ID == qid {
				predStr = q.Pred
			}
		}
		pred := query.MustParse(predStr)
		nopPlan, _, err := h.NoPPlan(pred)
		if err != nil {
			t.Fatal(err)
		}
		nop, err := engine.Run(nopPlan, engine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		plan, _, err := h.PPPlan(pred, 1.0)
		if err != nil {
			t.Fatal(err)
		}
		pp, err := engine.Run(plan, engine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if acc := retained(nop, pp); acc < 0.9 {
			t.Errorf("%s: accuracy %v at a=1.0, want >= 0.9", qid, acc)
		}
	}
}

func TestTable8Shape(t *testing.T) {
	rep := quickReport(t, "table8")
	// Last row is PP; its normalized 100% latency must beat NoP's 1.00.
	var nopLine, ppLine string
	for _, l := range rep.Lines {
		if strings.HasPrefix(l, "NoP") {
			nopLine = l
		}
		if strings.HasPrefix(l, "PP") {
			ppLine = l
		}
	}
	if nopLine == "" || ppLine == "" {
		t.Fatalf("missing rows:\n%s", rep)
	}
	nopCells := strings.Fields(nopLine)
	ppCells := strings.Fields(ppLine)
	if nopCells[len(nopCells)-1] != "1.00" {
		t.Fatalf("NoP 100%% latency not normalized to 1.00: %q", nopLine)
	}
	if ppCells[len(ppCells)-1] >= nopCells[len(nopCells)-1] {
		t.Fatalf("PP latency %s not below NoP %s", ppCells[len(ppCells)-1], nopCells[len(nopCells)-1])
	}
}

func TestTable4KDEBeatsSVMOnUCF(t *testing.T) {
	rep := quickReport(t, "table4")
	var kde, rawsvm float64
	for _, l := range rep.Lines {
		cells := strings.Fields(l)
		if len(cells) < 5 || cells[0] != "ucf101" {
			continue
		}
		switch cells[1] {
		case "PCA+KDE":
			kde = atof(t, cells[2]) // r(1]
		case "Raw+SVM":
			rawsvm = atof(t, cells[2])
		}
	}
	if kde == 0 {
		t.Fatalf("rows missing:\n%s", rep)
	}
	if kde <= rawsvm {
		t.Fatalf("PCA+KDE (%v) should beat Raw+SVM (%v) on UCF101 (Table 4 shape)", kde, rawsvm)
	}
}

func TestTable6PPBeatsJoglekar(t *testing.T) {
	rep := quickReport(t, "table6")
	// On every dataset block, the PP row should dominate the Joglekar row.
	var ppVals, jogVals []float64
	for _, l := range rep.Lines {
		cells := strings.Fields(l)
		if len(cells) < 4 {
			continue
		}
		switch cells[0] {
		case "PP":
			for _, c := range cells[1:4] {
				ppVals = append(ppVals, atof(t, c))
			}
		case "Joglekar":
			for _, c := range cells[1:4] {
				jogVals = append(jogVals, atof(t, c))
			}
		}
	}
	if len(ppVals) == 0 || len(ppVals) != len(jogVals) {
		t.Fatalf("rows missing:\n%s", rep)
	}
	wins := 0
	for i := range ppVals {
		if ppVals[i] > jogVals[i] {
			wins++
		}
	}
	if wins < len(ppVals)*2/3 {
		t.Fatalf("PP beat Joglekar on only %d/%d cells:\n%s", wins, len(ppVals), rep)
	}
}

func atof(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestAblationBudgetDPHelps(t *testing.T) {
	rep := quickReport(t, "ablation-budget")
	out := rep.String()
	if !strings.Contains(out, "saved by the DP") {
		t.Fatalf("missing summary:\n%s", out)
	}
	// The searched allocation can never be worse than the uniform one —
	// uniform is one point of the search space.
	for _, l := range rep.Lines {
		cells := strings.Fields(l)
		if len(cells) != 5 || !strings.HasPrefix(cells[0], "Q") {
			continue
		}
		searched, uniform := atof(t, cells[3]), atof(t, cells[4])
		if searched > uniform+1e-9 {
			t.Fatalf("searched plan cost %v worse than uniform %v on %s", searched, uniform, cells[0])
		}
	}
}

func TestAblationOrderingNeverHurts(t *testing.T) {
	rep := quickReport(t, "ablation-order")
	for _, l := range rep.Lines {
		cells := strings.Fields(l)
		if len(cells) != 4 || !strings.HasPrefix(cells[0], "Q") {
			continue
		}
		saving := strings.TrimSuffix(cells[3], "%")
		if atof(t, saving) < -1 {
			t.Fatalf("ordering hurt on %s: %s", cells[0], l)
		}
	}
}

func TestAblationKMonotone(t *testing.T) {
	rep := quickReport(t, "ablation-k")
	for _, l := range rep.Lines {
		cells := strings.Fields(l)
		if len(cells) != 5 || !strings.HasPrefix(cells[0], "Q") {
			continue
		}
		prev := -1.0
		for _, c := range cells[1:] {
			if c == "-" {
				continue
			}
			v := atof(t, c)
			if v < prev-1e-9 {
				t.Fatalf("reduction not monotone in k on %s: %s", cells[0], l)
			}
			prev = v
		}
	}
}

func TestAblationModelSelectionCompetitive(t *testing.T) {
	rep := quickReport(t, "ablation-model")
	// Auto selection must come within 90% of the best fixed approach.
	for _, l := range rep.Lines {
		cells := strings.Fields(l)
		if len(cells) < 6 || (cells[0] != "sun" && cells[0] != "ucf101") {
			continue
		}
		auto := atof(t, cells[1])
		best := 0.0
		for _, c := range cells[len(cells)-3:] {
			if v := atof(t, c); v > best {
				best = v
			}
		}
		if auto < 0.9*best {
			t.Fatalf("auto selection %v far below best fixed %v on %s", auto, best, cells[0])
		}
	}
}

func TestCoverageDegradesGracefully(t *testing.T) {
	rep := quickReport(t, "coverage")
	// Parse the covered counts per corpus row; full must cover the most
	// and the full corpus must cover nearly everything (§8.2's closing
	// claim: the per-clause corpus spans the whole predicate space).
	counts := map[string]float64{}
	for _, l := range rep.Lines {
		cells := strings.Fields(l)
		if len(cells) < 4 {
			continue
		}
		switch cells[0] {
		case "full", "half", "quarter":
			for _, c := range cells[1:] {
				if !strings.Contains(c, "/") {
					continue
				}
				frac := strings.Split(c, "/")
				counts[cells[0]] = atof(t, frac[0]) / atof(t, frac[1])
				break
			}
		}
	}
	if len(counts) != 3 {
		t.Fatalf("rows missing:\n%s", rep)
	}
	if counts["full"] < 0.9 {
		t.Fatalf("full corpus covers only %v of ad-hoc predicates", counts["full"])
	}
	if counts["full"] < counts["half"] || counts["half"] < counts["quarter"] {
		t.Fatalf("coverage not monotone in corpus size: %v", counts)
	}
}

func TestTable7Shapes(t *testing.T) {
	rep := quickReport(t, "table7")
	for _, l := range rep.Lines {
		cells := strings.Fields(l)
		if len(cells) < 4 {
			continue
		}
		switch cells[0] {
		case "Q7": // s>60 & s<65: numeric range conjunction
			if cells[2] != "NRC" {
				t.Fatalf("Q7 shape = %s", cells[2])
			}
		case "Q14": // conjunction with a disjunction
			if !strings.Contains(cells[2], "D") || !strings.Contains(cells[2], "C") {
				t.Fatalf("Q14 shape = %s", cells[2])
			}
		case "Q20":
			sel := atof(t, cells[3])
			if sel > 0.01 {
				t.Fatalf("Q20 selectivity = %v, want very small", sel)
			}
		}
	}
}

// TestTable2Runs: the measured ratios are Wall, so the golden does not see
// them; every approach must still have its row.
func TestTable2Runs(t *testing.T) {
	rep := quickReport(t, "table2")
	wall := strings.Join(rep.Wall, "\n")
	for _, approach := range []string{"SVM", "KDE", "DNN", "PCA+SVM"} {
		if !strings.Contains(wall, "\n"+approach+" ") {
			t.Fatalf("missing %s:\n%s", approach, wall)
		}
	}
}

func TestDriftRecalibrationHelps(t *testing.T) {
	rep := quickReport(t, "drift")
	// Parse the summary line: recalibrated accuracy must beat stale by a
	// wide margin under drift.
	var stale, recal float64
	for _, l := range rep.Lines {
		if !strings.HasPrefix(l, "average accuracy:") {
			continue
		}
		if _, err := fmt.Sscanf(l, "average accuracy: stale %f vs recalibrated %f", &stale, &recal); err != nil {
			t.Fatalf("parse %q: %v", l, err)
		}
	}
	if recal == 0 {
		t.Fatalf("summary missing:\n%s", rep)
	}
	if recal < stale+0.1 {
		t.Fatalf("recalibration did not help enough: stale %v recal %v", stale, recal)
	}
	if recal < 0.75 {
		t.Fatalf("recalibrated accuracy %v too low", recal)
	}
}
