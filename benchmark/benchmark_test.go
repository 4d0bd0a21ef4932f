package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"probpred/internal/optimizer"
	"probpred/internal/query"
)

func TestQuantileIsExactNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100, already sorted
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	// A quantile is always one of the samples, never an interpolation.
	if got := quantile([]float64{1, 10}, 0.5); got != 1 {
		t.Errorf("quantile({1,10}, 0.5) = %v, want the sample 1", got)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{199, 0.95, false}, // 9 beyond
		{200, 0.95, true},  // 10 beyond
		{999, 0.99, false},
		{1000, 0.99, true},
		{20, 0.5, true},
		{19, 0.5, false},
		{0, 0.5, false},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v (beyond %d), want %v", c.n, c.q, got, samplesBeyond(c.n, c.q), c.want)
		}
	}
}

func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	// Two repeats: the full range over their midpoint.
	if got := spread([]float64{9, 11}); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("spread of two = %v, want 0.2", got)
	}
}

func TestBlockRatesIgnoreOneStall(t *testing.T) {
	// 10 ops/s in blocks of 10, with one 5-second stall in the third block.
	var done []float64
	at := 0.0
	for i := 0; i < 60; i++ {
		at += 0.1
		if i == 25 {
			at += 5
		}
		done = append(done, at)
	}
	rates := blockRates(done, 10)
	if len(rates) != 5 {
		t.Fatalf("%d block rates from 60 completions in blocks of 10", len(rates))
	}
	if got := median(rates); math.Abs(got-10) > 1e-9 {
		t.Errorf("median block rate = %v, want 10", got)
	}
	if got := blockRates(done[:15], 10); len(got) != 1 || math.Abs(got[0]-15/done[14]) > 1e-9 {
		t.Errorf("block rates below two blocks = %v, want the whole-slice rate", got)
	}
}

func TestPoissonScheduleIsAPureFunction(t *testing.T) {
	a := poissonSchedule(7, 35, 10*time.Second)
	b := poissonSchedule(7, 35, 10*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, rate, duration) gave two schedules")
	}
	if c := poissonSchedule(8, 35, 10*time.Second); reflect.DeepEqual(a, c) {
		t.Error("a different seed gave the same schedule")
	}
	if n := len(a); n < 280 || n > 420 {
		t.Errorf("%d arrivals at 35/s over 10 s", n)
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d precedes arrival %d", i, i-1)
		}
	}
	if last := a[len(a)-1]; last >= 10*time.Second {
		t.Errorf("last arrival %v lies outside the phase", last)
	}
	if f := fixedSchedule(20, 10*time.Second); len(f) != 200 || f[0] != 0 || f[199] != 9950*time.Millisecond {
		t.Errorf("fixed schedule: %d arrivals, first %v, last %v", len(f), f[0], f[len(f)-1])
	}
}

// The open loop must keep dispatching on schedule while every reply is
// parked: completions never throttle arrivals.
func TestOpenLoopArrivalsAreNotThrottledByCompletions(t *testing.T) {
	sched := fixedSchedule(200, 100*time.Millisecond) // 20 arrivals, 5 ms apart
	release := make(chan struct{})
	var mu sync.Mutex
	started := 0
	allStarted := make(chan struct{})
	go func() {
		<-allStarted
		close(release)
	}()
	recs, backlog := openLoop(sched, 100, func(g int, r *opRecord) {
		mu.Lock()
		started++
		if started == len(sched) {
			close(allStarted)
		}
		mu.Unlock()
		<-release // parked until the last arrival has been dispatched
		r.ok = true
	})
	if len(recs) != len(sched) {
		t.Fatalf("%d records for %d arrivals", len(recs), len(sched))
	}
	for i, r := range recs {
		if r.index != 100+i || r.due != sched[i] || !r.ok {
			t.Errorf("record %d: index %d due %v ok %v", i, r.index, r.due, r.ok)
		}
		if r.done < sched[len(sched)-1] {
			t.Errorf("record %d completed at %v, before the last arrival was due", i, r.done)
		}
		if r.latency() != r.done-r.due {
			t.Errorf("record %d: latency is not timed from the due time", i)
		}
	}
	if got := backlog[len(backlog)-1]; got != len(sched)-1 {
		t.Errorf("backlog at the last dispatch = %d, want %d: earlier operations were all parked", got, len(sched)-1)
	}
	if !backlogGrowing(backlog) {
		t.Error("a backlog that grows by one per dispatch is not reported as growing")
	}
	if backlogGrowing(make([]int, 100)) {
		t.Error("an empty backlog is reported as growing")
	}
}

func TestClosedLoopSendsOnlyAfterTheReply(t *testing.T) {
	var mu sync.Mutex
	inflight, worst := 0, 0
	recs := closedLoop(2, 50*time.Millisecond, 10, 0, func(g int, r *opRecord) {
		mu.Lock()
		inflight++
		worst = max(worst, inflight)
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inflight--
		mu.Unlock()
		r.ok = true
	})
	if worst > 2 {
		t.Errorf("%d operations in flight with 2 clients", worst)
	}
	seen := map[int]bool{}
	for i, r := range recs {
		if r.index < 10 || seen[r.index] {
			t.Errorf("record %d has index %d", i, r.index)
		}
		seen[r.index] = true
		if i > 0 && r.done < recs[i-1].done {
			t.Error("records are not ordered by completion")
		}
	}
	if got := closedLoop(1, time.Second, 0, 3, func(int, *opRecord) {}); len(got) != 3 {
		t.Errorf("%d operations with a request stream of 3", len(got))
	}
}

func TestAdhocPredicatesAreDistinctParseableAndPlannable(t *testing.T) {
	cfg := quickConfig()
	preds, err := adhocPredicates(512)
	if err != nil {
		t.Fatal(err)
	}
	again, err := adhocPredicates(512)
	if err != nil {
		t.Fatal(err)
	}
	f, err := newFixture(cfg, svmCorpus, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	b := builder{}
	keys := map[string]bool{}
	heavy := 0
	for i, p := range preds {
		if p.text != again[i].text {
			t.Fatalf("predicate %d differs between two calls with one seed", i)
		}
		parsed, err := query.Parse(p.text)
		if err != nil {
			t.Fatalf("%s does not parse: %v", p.text, err)
		}
		keys[optimizer.CanonicalKey(parsed)] = true
		clauses := len(query.Clauses(parsed))
		if clauses < 3 || clauses > 4 {
			t.Errorf("%s has %d clauses", p.text, clauses)
		}
		if clauses == 4 {
			heavy++
		}
		if _, err := referencePlan(f.opt, b, parsed); err != nil {
			t.Errorf("%s does not plan: %v", p.text, err)
		}
	}
	if len(keys) != 512 {
		t.Errorf("%d distinct canonical keys among 512 predicates", len(keys))
	}
	if heavy < 256 {
		t.Errorf("%d of 512 predicates are 4-clause or disjunctive, want at least half", heavy)
	}
}

// A hand-built tree: a 100 ns root with children covering [10,40) and
// [30,60) (overlapping) and [90,120) (clipped to the root); the first child
// has a grandchild covering [10,25).
func TestSpanSelfTimeAndUnattributedShare(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Session: 1, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Session: 1, StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Session: 1, StartNS: 30, EndNS: 60},
		{ID: 4, Parent: 1, Session: 1, StartNS: 90, EndNS: 120},
		{ID: 5, Parent: 2, Session: 1, StartNS: 10, EndNS: 25},
		{ID: 6, Parent: 0, Session: 2, StartNS: 200, EndNS: 300}, // a root with no children
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 40, 2: 15, 3: 30, 4: 30, 5: 15, 6: 100}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	if got := unattributedShare(spans); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("unattributed share = %v, want (40+100)/200", got)
	}
}

func TestTracedOperationExpandsToACoveredTree(t *testing.T) {
	r := &opRecord{index: 4, due: 0, sent: 2, done: 102, ok: true, detail: &opDetail{
		root: "serve.do", parse: 5, call: 95,
		sessions: []sessionDetail{{
			queueWait: 10, service: 80, search: 20, legs: 1,
			ops: []opStat{{kind: kindScan, wall: 10}, {kind: kindPPFilter, wall: 30, rowsIn: 9, rowsOut: 3}, {kind: kindUDF, wall: 15}},
		}},
	}}
	var log spanLog
	log.addOp("w", 1000, r)
	names := map[string]span{}
	for _, s := range log.spans {
		names[s.Name] = s
	}
	root, svc := names["serve.do"], names["serve.service"]
	if root.StartNS != 1002 || root.EndNS != 1102 || root.Parent != 0 || root.Session != 5 {
		t.Errorf("root span %+v", root)
	}
	if svc.StartNS != 1017 || svc.EndNS != 1097 || svc.Parent != root.ID {
		t.Errorf("service span %+v", svc)
	}
	if pf := names["engine.ppfilter"]; pf.Parent != svc.ID || pf.EndNS-pf.StartNS != 30 || pf.Counts["rows_out"] != 3 {
		t.Errorf("ppfilter span %+v", pf)
	}
	self := selfTimes(log.spans)
	if self[svc.ID] != 80-20-10-30-15 {
		t.Errorf("service self time = %d", self[svc.ID])
	}
	if got := unattributedShare(log.spans); math.Abs(got-0.05) > 1e-12 {
		t.Errorf("unattributed share = %v, want 5 of 100 ns", got)
	}
}

// BENCHMARK.json must name exactly what the program reports.
func TestBenchmarkFileNamesWhatTheProgramReports(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var bf struct {
		Paths     []string
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", bf.Paths)
	}
	ws := workloads(fullConfig())
	if len(bf.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(ws))
	}
	for i, w := range ws {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, bf.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, file []metric, prog []metricDef) {
		if len(file) != len(prog) {
			t.Errorf("%d %s metrics in BENCHMARK.json, %d in the program", len(file), kind, len(prog))
			return
		}
		for i, d := range prog {
			if file[i].Name != d.name || file[i].Unit != d.unit {
				t.Errorf("%s metric %d is %v in BENCHMARK.json, %v in the program", kind, i, file[i], d)
			}
		}
	}
	same("end-to-end", bf.EndToEnd, endToEndMetrics)
	same("per-layer", bf.PerLayer, perLayerMetrics)
}

// The smoke run: all four workloads at quick sizes, both passes. It asserts
// that the oracle passes and that every metric is present; the numbers are
// never reported.
func TestQuickSmokeOfAllWorkloads(t *testing.T) {
	cfg := quickConfig()
	for _, w := range workloads(cfg) {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // nothing asserted here is a timing
			var log spanLog
			res, err := runWorkload(w, cfg, 3, 0.3, false, &log)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			for _, d := range endToEndMetrics {
				if v, ok := res.Metrics[d.name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", d.name, v)
				}
			}
			res, err = runWorkload(w, cfg, 3, 0.2, true, &log)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 {
				t.Errorf("traced: failed %d of %d", res.Failed, res.Attempted)
			}
			for _, d := range perLayerMetrics {
				if _, ok := res.Metrics[d.name]; !ok {
					t.Errorf("traced: %s is missing", d.name)
				}
			}
			if len(log.spans) == 0 {
				t.Error("traced: no spans")
			}
			if u := res.Metrics["trace.unattributed_share"]; u < 0 || u > 1 {
				t.Errorf("trace.unattributed_share = %v", u)
			}
		})
	}
}
