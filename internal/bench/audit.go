package bench

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"probpred/internal/blob"
	"probpred/internal/core"
	"probpred/internal/data"
	"probpred/internal/mathx"
	"probpred/internal/optimizer"
	"probpred/internal/query"
	"probpred/internal/udf"
)

// Audit measures whether the accuracy target is met, as a statistical
// statement across data seeds rather than on one seed (ROADMAP item 1,
// report only). For each seed it builds the §8.2 harness, plans TRAF20 and
// the ad-hoc predicates at each target, and runs every injected filter over
// the test stream. Realized recall is the share of the test positives the
// filter keeps — what Figure 10 calls the retained fraction, computed from
// ground truth instead of a NoP run — with a 95 % Wilson interval over
// those positives.
//
// A miss (recall below target) is flagged when validation sampling cannot
// explain it: the interval's upper end lies below the Wilson lower bound of
// the target measured on the fewest validation positives any of the plan's
// leaves was calibrated on. Every miss is then attributed by re-running the
// plan with each leaf's threshold fitted on the test set at the accuracy its
// validation threshold achieved: if those oracle thresholds meet the target
// the miss was (i) threshold sampling; if a compound still misses, (ii) the
// independence product the optimizer multiplies leaf accuracies by (Eq.
// 9/10); anything else is (iii). This is the interval methodology of Kang et
// al. (PAPERS.md) pointed at the paper's own guarantee.
func Audit(cfg Config) (*Report, error) {
	seeds := cfg.scale(20, 2)
	adhoc, err := parsePredicates(adhocPredicates(cfg.scale(512, 8)))
	if err != nil {
		return nil, err
	}
	traf := make([]string, len(TRAF20))
	for i, q := range TRAF20 {
		traf[i] = q.Pred
	}
	trafPreds, err := parsePredicates(traf)
	if err != nil {
		return nil, err
	}
	var runs []auditRun
	for k := 0; k < seeds; k++ {
		sc := cfg
		sc.Seed = cfg.Seed + uint64(k)
		h, err := NewTrafficHarness(sc)
		if err != nil {
			return nil, err
		}
		a := newAuditor(h)
		for i, pred := range trafPreds {
			class := "compound"
			if _, simple := pred.(*query.Clause); simple {
				class = "single"
			}
			if err := a.query(TRAF20[i].ID, class, pred, &runs); err != nil {
				return nil, err
			}
		}
		for i, pred := range adhoc {
			if err := a.query(fmt.Sprintf("A%d", i+1), "ad-hoc", pred, &runs); err != nil {
				return nil, err
			}
		}
	}
	rep := &Report{ID: "audit", Title: fmt.Sprintf("realized recall vs target: %d data seeds × (TRAF20 + %d ad-hoc predicates)", seeds, len(adhoc))}
	auditSummary(rep, runs)
	auditPerQuery(rep, runs, 0.95)
	return rep, nil
}

// auditTargets are the accuracy targets the audit plans every query at.
var auditTargets = []float64{0.9, 0.95, 0.99, 1.0}

// auditRun is one (seed, query, target) outcome.
type auditRun struct {
	id, class string
	target    float64
	// inject is false when the optimizer ran the query without a PP; such
	// runs keep every positive and are counted apart.
	inject bool
	// pos is the query's test positives and kept how many the filter
	// passed; hi is the upper end of kept/pos's 95 % interval.
	pos, kept int
	hi        float64
	// leaves lists the plan's leaves as "clause:n₊" (validation positives)
	// and minVal is the smallest n₊ among them.
	leaves []string
	minVal int
	// flagged marks a miss validation sampling cannot explain; cause is
	// "i", "ii" or "iii" for a miss and empty otherwise.
	flagged bool
	cause   string
}

func (r auditRun) recall() float64 {
	if r.pos == 0 {
		return 1
	}
	return float64(r.kept) / float64(r.pos)
}

func (r auditRun) miss() bool { return r.inject && r.recall() < r.target }

// auditor plans and measures queries over one seed's harness. The filters
// of every query share one score store, so each (PP, blob) is scored once.
type auditor struct {
	h      *TrafficHarness
	store  *optimizer.ScoreColumns
	pass   []bool
	cost   []float64
	oracle map[*core.PP]*core.Curve // the PP's curve over the test stream
}

func newAuditor(h *TrafficHarness) *auditor {
	n := len(h.TestBlobs)
	return &auditor{h: h, store: optimizer.NewScoreColumns(1<<16, false),
		pass: make([]bool, n), cost: make([]float64, n), oracle: map[*core.PP]*core.Curve{}}
}

// query plans pred at every audit target and appends the outcomes.
func (a *auditor) query(id, class string, pred query.Pred, runs *[]auditRun) error {
	truth, err := data.TrafficSet(a.h.TestBlobs, pred)
	if err != nil {
		return err
	}
	procs, err := udf.TrafficPipeline(pred, 0, a.h.seed)
	if err != nil {
		return err
	}
	for _, target := range auditTargets {
		dec, err := a.h.Opt.Optimize(pred, optimizer.Options{
			Accuracy: target, UDFCost: udf.PipelineCost(procs), Domains: data.TrafficDomains(),
		})
		if err != nil {
			return fmt.Errorf("bench: audit %s at %v: %w", id, target, err)
		}
		r := auditRun{id: id, class: class, target: target, inject: dec.Inject, pos: truth.Positives()}
		if !dec.Inject {
			r.kept, r.hi = r.pos, 1
			*runs = append(*runs, r)
			continue
		}
		r.kept = a.kept(dec.Filter.WithScoreCache(a.store), truth)
		_, r.hi = wilson(r.kept, r.pos)
		r.minVal = math.MaxInt
		dec.Filter.WithThresholds(func(pp *core.PP, th float64) float64 {
			n := pp.Curve().Positives()
			r.leaves = append(r.leaves, fmt.Sprintf("%s:%d", pp.Clause, n))
			r.minVal = min(r.minVal, n)
			return th
		})
		if r.miss() {
			floor, _ := wilson(int(math.Ceil(target*float64(r.minVal))), r.minVal)
			r.flagged = r.hi < floor
			fitted, err := a.fitted(dec.Filter)
			if err != nil {
				return err
			}
			switch {
			case float64(a.kept(fitted.WithScoreCache(a.store), truth)) >= target*float64(r.pos):
				r.cause = "i"
			case class != "single":
				r.cause = "ii"
			default:
				r.cause = "iii"
			}
		}
		*runs = append(*runs, r)
	}
	return nil
}

// kept runs f over the test stream and counts the positives it passes.
func (a *auditor) kept(f *optimizer.Compiled, truth blob.Set) int {
	f.TestBatch(a.h.TestBlobs, a.pass, a.cost, nil)
	n := 0
	for i, ok := range a.pass {
		if ok && truth.Labels[i] {
			n++
		}
	}
	return n
}

// fitted returns f with every leaf's threshold refitted on the test stream
// at the accuracy its validation threshold achieves.
func (a *auditor) fitted(f *optimizer.Compiled) (*optimizer.Compiled, error) {
	var err error
	g := f.WithThresholds(func(pp *core.PP, th float64) float64 {
		c, ok := a.oracle[pp]
		if !ok {
			var e error
			if c, e = a.testCurve(pp); e != nil {
				err = e
				return th
			}
			a.oracle[pp] = c
		}
		return c.Threshold(pp.Curve().AccuracyAtThreshold(th))
	})
	return g, err
}

// testCurve is pp's accuracy curve over the test stream, labelled by its
// clause.
func (a *auditor) testCurve(pp *core.PP) (*core.Curve, error) {
	pred, err := query.Parse(pp.Clause)
	if err != nil {
		return nil, err
	}
	set, err := data.TrafficSet(a.h.TestBlobs, pred)
	if err != nil {
		return nil, err
	}
	scores := make([]float64, len(set.Blobs))
	pp.ScoreBatch(set.Blobs, scores)
	return core.NewCurve(scores, set.Labels)
}

// wilson returns the 95 % Wilson score interval of the proportion k/n; an
// empty sample bounds nothing.
func wilson(k, n int) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	const z = 1.96
	p, nf := float64(k)/float64(n), float64(n)
	den := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / den
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / den
	lo, hi = math.Max(0, center-half), math.Min(1, center+half)
	// The bounds at k = 0 and k = n are exactly 0 and 1; rounding must not
	// move them off.
	if k == 0 {
		lo = 0
	}
	if k == n {
		hi = 1
	}
	return lo, hi
}

// auditSummary renders one row per (class, target) and records the share of
// runs meeting their target, outright and within the interval.
func auditSummary(rep *Report, runs []auditRun) {
	tb := &table{header: []string{"class", "target", "runs", "no PP", "met", "met in CI", "mean recall", "min recall", "flagged", "(i)", "(ii)", "(iii)"}}
	for _, class := range []string{"single", "compound", "ad-hoc"} {
		for _, target := range auditTargets {
			var n, noPP, met, inCI, flagged int
			causes := map[string]int{}
			sum, worst := 0.0, 1.0
			for _, r := range runs {
				if r.class != class || r.target != target {
					continue
				}
				if !r.inject {
					noPP++
					continue
				}
				n++
				sum += r.recall()
				worst = math.Min(worst, r.recall())
				if !r.miss() {
					met++
				}
				if r.hi >= target {
					inCI++
				}
				if r.flagged {
					flagged++
				}
				causes[r.cause]++
			}
			if n == 0 {
				continue
			}
			key := fmt.Sprintf("%s@%g", class, target)
			rep.metric(key+".recall_target_met_share", float64(met)/float64(n))
			rep.metric(key+".met_in_ci_share", float64(inCI)/float64(n))
			rep.metric(key+".flagged", float64(flagged))
			tb.add(class, fmt.Sprint(target), fmt.Sprint(n), fmt.Sprint(noPP),
				f3(float64(met)/float64(n)), f3(float64(inCI)/float64(n)), f3(sum/float64(n)), f3(worst),
				fmt.Sprint(flagged), fmt.Sprint(causes["i"]), fmt.Sprint(causes["ii"]), fmt.Sprint(causes["iii"]))
		}
	}
	rep.Lines = append(rep.Lines, tb.render()...)
	rep.addf("met: recall >= target; met in CI: the 95%% Wilson interval over the test positives reaches the target;")
	rep.addf("flagged: a miss whose interval lies below the target's Wilson lower bound on the plan's fewest validation positives;")
	rep.addf("misses by cause: (i) threshold sampling (test-fitted leaf thresholds meet the target), (ii) independence product, (iii) other")
}

// auditPerQuery renders TRAF20 query by query at one target: recall across
// seeds, misses, and the leaves' validation positives on the first seed.
func auditPerQuery(rep *Report, runs []auditRun, target float64) {
	type agg struct {
		recalls      []float64
		misses, runs int
		leaves       string
	}
	byID := map[string]*agg{}
	for _, r := range runs {
		if r.class == "ad-hoc" || r.target != target || !r.inject {
			continue
		}
		g := byID[r.id]
		if g == nil {
			g = &agg{leaves: strings.Join(r.leaves, " ")}
			byID[r.id] = g
		}
		g.runs++
		g.recalls = append(g.recalls, r.recall())
		if r.miss() {
			g.misses++
		}
	}
	rep.addf("")
	rep.addf("TRAF20 at target %g (runs with a PP):", target)
	tb := &table{header: []string{"query", "runs", "median recall", "min recall", "misses", "leaves (clause:validation positives, first seed)"}}
	for _, q := range TRAF20 {
		g := byID[q.ID]
		if g == nil {
			tb.add(q.ID, "0", "-", "-", "-", "no PP")
			continue
		}
		sort.Float64s(g.recalls)
		tb.add(q.ID, fmt.Sprint(g.runs), f3(g.recalls[len(g.recalls)/2]), f3(g.recalls[0]), fmt.Sprint(g.misses), g.leaves)
	}
	rep.Lines = append(rep.Lines, tb.render()...)
}

// parsePredicates parses predicate texts.
func parsePredicates(texts []string) ([]query.Pred, error) {
	out := make([]query.Pred, len(texts))
	for i, t := range texts {
		p, err := query.Parse(t)
		if err != nil {
			return nil, fmt.Errorf("bench: predicate %q: %w", t, err)
		}
		out[i] = p
	}
	return out, nil
}

// adhocPredicates returns n distinct 3–4-clause predicates in TRAF20 shapes
// over the trained vocabulary: a conjunction over distinct columns in which
// one factor may be a two-value disjunction, odd indices taking the 4-clause
// or disjunctive shapes. Distinctness is by canonical plan key. The
// generator and its seed are those of the benchmark's adhoc_cold workload,
// so the set is the one that workload cycles through.
func adhocPredicates(n int) []string {
	rng := mathx.NewRNG(42 ^ 0xad0c)
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
	var texts []string
	for len(texts) < n {
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
		key := optimizer.CanonicalKey(query.MustParse(text))
		if seen[key] {
			continue
		}
		seen[key] = true
		texts = append(texts, text)
	}
	return texts
}
