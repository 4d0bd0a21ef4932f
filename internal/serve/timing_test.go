package serve

// Regression tests for the PR 7 serving-path fixes (per-request accuracy
// validation, Config.fill's accuracy contract, Replay error aggregation) and
// for the enqueue→admit / admit→done timing split behind the
// serve_admission_wait_ns / serve_service_ns histograms.

import (
	"strings"
	"sync"
	"testing"
	"time"

	"probpred/internal/engine"
	"probpred/internal/metrics"
	"probpred/internal/query"
	"probpred/internal/testkit"
)

// TestRequestAccuracyValidation: an out-of-range per-request accuracy is
// rejected before it reaches the optimizer — pre-fix it flowed into
// optimizer.Optimize and was baked into the plan-cache key, permanently
// polluting the cache for every later request with the same spelling.
func TestRequestAccuracyValidation(t *testing.T) {
	st := newMiniStack(t, 400, nil)
	for _, acc := range []float64{-0.5, -0.0001, 1.0001, 42} {
		resp, err := st.srv.Do(Request{ID: "bad", Pred: query.MustParse("t=SUV"), Accuracy: acc})
		if err == nil {
			t.Fatalf("accuracy %v was accepted", acc)
		}
		if !strings.Contains(err.Error(), "[0,1]") {
			t.Errorf("accuracy %v rejection does not state the accepted range: %v", acc, err)
		}
		if resp != nil {
			t.Errorf("accuracy %v returned a response alongside the error", acc)
		}
	}
	// A request with no predicate (and no ID to name its span by) is
	// rejected, not dereferenced.
	if _, err := st.srv.Do(Request{}); err == nil || !strings.Contains(err.Error(), "no predicate") {
		t.Errorf("predicate-less request: err = %v, want a no-predicate rejection", err)
	}
	stats := st.srv.Stats()
	if stats.PlanEntries != 0 || stats.PlanMisses != 0 {
		t.Fatalf("rejected requests reached the plan cache: entries=%d misses=%d",
			stats.PlanEntries, stats.PlanMisses)
	}
	// The boundaries of the accepted range still serve: 0 selects the server
	// default, 1 is the strictest target.
	for _, acc := range []float64{0, 1} {
		if _, err := st.srv.Do(Request{ID: "ok", Pred: query.MustParse("t=SUV"), Accuracy: acc}); err != nil {
			t.Fatalf("accuracy %v rejected: %v", acc, err)
		}
	}
}

// TestConfigAccuracyValidation: Config.fill accepts [0,1] with zero meaning
// "default to 1", and says so — pre-fix the error text claimed the accepted
// range was (0,1] while zero was silently remapped before the check.
func TestConfigAccuracyValidation(t *testing.T) {
	cfg, _ := miniConfig(t, testkit.Blobs(100, 7))
	mk := func(acc float64) error {
		cfg.Accuracy = acc
		_, err := New(cfg)
		return err
	}
	for _, acc := range []float64{0, 0.5, 1} {
		if err := mk(acc); err != nil {
			t.Errorf("accuracy %v rejected: %v", acc, err)
		}
	}
	for _, acc := range []float64{-0.1, 1.5} {
		err := mk(acc)
		if err == nil {
			t.Fatalf("accuracy %v was accepted", acc)
		}
		if !strings.Contains(err.Error(), "[0,1]") {
			t.Errorf("accuracy %v rejection does not match the accepted range: %v", acc, err)
		}
	}
}

// TestReplayAggregatesAllErrors: Replay runs the whole workload and reports
// every failure — pre-fix the doc promised abort-on-first-error while the
// code continued, and only the first error was returned.
func TestReplayAggregatesAllErrors(t *testing.T) {
	st := newMiniStack(t, 300, nil)
	wl := []WorkloadQuery{
		{ID: "good1", Pred: "t=SUV"},
		{ID: "bad-parse", Pred: "t=%%"},
		{ID: "bad-accuracy", Pred: "c=red", Accuracy: 7},
		{ID: "good2", Pred: "c=red"},
	}
	// One worker: with the old abort-on-first-error contract nothing after
	// bad-parse would have run.
	resps, err := st.srv.Replay(wl, 1)
	if err == nil {
		t.Fatal("Replay returned no error for a workload with two failing queries")
	}
	for _, want := range []string{"query bad-parse", "query bad-accuracy"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("aggregated error is missing %q: %v", want, err)
		}
	}
	if resps[0] == nil || resps[3] == nil {
		t.Fatal("queries around the failures did not run to completion")
	}
	if resps[1] != nil || resps[2] != nil {
		t.Fatal("failed queries returned responses")
	}
}

// blockUDF is the kit's UDF, signalling entry and then parking until
// released — the instrument for pinning a session inside its admission slot.
type blockUDF struct {
	testkit.UDF
	entered, release chan struct{}
}

func (u blockUDF) Apply(b engine.Batch) error {
	select {
	case u.entered <- struct{}{}:
	default:
	}
	<-u.release
	return u.UDF.Apply(b)
}

// TestAdmissionWaitHistogram: under a saturated server the queue wait
// observed by serve_admission_wait_ns (and Response.QueueWait) is the
// semaphore blocking time, and the service histogram counts every session.
func TestAdmissionWaitHistogram(t *testing.T) {
	reg := metrics.New()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	st := newMiniStack(t, 40, func(c *Config) {
		c.MaxConcurrent = 1
		c.Metrics = reg
		c.Builder.CorpusBuilder = testkit.Builder{UDF: blockUDF{UDF: 40, entered: entered, release: release}}
	})
	pred := query.MustParse("t=SUV")
	var wg sync.WaitGroup
	resps := make([]*Response, 3)
	do := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := st.srv.Do(Request{ID: "s", Pred: pred})
			if err != nil {
				t.Error(err)
				return
			}
			resps[i] = resp
		}()
	}
	// Session 0 takes the only slot and parks inside its UDF.
	do(0)
	<-entered
	// Sessions 1 and 2 enqueue behind the full semaphore.
	do(1)
	do(2)
	waitDeadline := time.Now().Add(10 * time.Second)
	for reg.Gauge("serve_admission_queue_depth", "").Value() != 2 {
		if time.Now().After(waitDeadline) {
			t.Fatal("sessions never queued behind the admission semaphore")
		}
		time.Sleep(time.Millisecond)
	}
	const hold = 100 * time.Millisecond
	time.Sleep(hold)
	close(release)
	wg.Wait()

	// The queued sessions waited at least the hold (they were verifiably in
	// the semaphore before it started); the slot holder barely waited.
	for _, i := range []int{1, 2} {
		if resps[i].QueueWait < hold/2 {
			t.Errorf("session %d QueueWait = %v, want >= %v of semaphore blocking", i, resps[i].QueueWait, hold/2)
		}
	}
	if resps[0].Service < hold/2 {
		t.Errorf("slot holder Service = %v, want >= %v (it was parked while serving)", resps[0].Service, hold/2)
	}
	qh := reg.Histogram("serve_admission_wait_ns", "")
	if qh.Count() != 3 {
		t.Fatalf("serve_admission_wait_ns observed %d sessions, want 3", qh.Count())
	}
	if got := time.Duration(qh.Quantile(0.99)); got < hold/2 {
		t.Errorf("serve_admission_wait_ns p99 = %v, want >= %v", got, hold/2)
	}
	sh := reg.Histogram("serve_service_ns", "")
	if sh.Count() != 3 {
		t.Fatalf("serve_service_ns observed %d sessions, want 3", sh.Count())
	}
}

// TestShardedQueueWaitCountedOnce: a sharded session's admission wait is its
// slowest leg's, and it is not also inside Service — QueueWait + Service is
// the wall time of Do, however long a leg queued.
func TestShardedQueueWaitCountedOnce(t *testing.T) {
	reg := metrics.New()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	srv := newMiniSharded(t, 40, 2, 1, func(cfg *ShardedConfig) {
		cfg.Base.MaxConcurrent = 1
		cfg.Base.Metrics = reg
		cfg.Builder = testkit.Builder{UDF: blockUDF{UDF: 40, entered: entered, release: release}}
	})
	pred := query.MustParse("t=SUV")
	var wg sync.WaitGroup
	wg.Add(2)
	// The first session's legs take each replica's only slot and park.
	go func() {
		defer wg.Done()
		if _, err := srv.Do(Request{ID: "holder", Pred: pred}); err != nil {
			t.Error(err)
		}
	}()
	<-entered
	var resp *Response
	var wall time.Duration
	go func() {
		defer wg.Done()
		start := time.Now()
		r, err := srv.Do(Request{ID: "queued", Pred: pred})
		wall = time.Since(start)
		if err != nil {
			t.Error(err)
		}
		resp = r
	}()
	deadline := time.Now().Add(10 * time.Second)
	for reg.Gauge("serve_admission_queue_depth", "").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the second session never queued behind a pinned slot")
		}
		time.Sleep(time.Millisecond)
	}
	const hold = 100 * time.Millisecond
	time.Sleep(hold)
	close(release)
	wg.Wait()
	if resp == nil {
		t.FailNow()
	}
	if resp.QueueWait < hold/2 {
		t.Errorf("QueueWait = %v, want >= %v behind the pinned slot", resp.QueueWait, hold/2)
	}
	if sum := resp.QueueWait + resp.Service; sum > wall {
		t.Errorf("QueueWait %v + Service %v = %v exceeds the measured wall time of Do, %v", resp.QueueWait, resp.Service, sum, wall)
	}
}

// TestUncontendedQueueWait: with free slots the admission wait is noise —
// sequential sessions never queue.
func TestUncontendedQueueWait(t *testing.T) {
	reg := metrics.New()
	st := newMiniStack(t, 400, func(c *Config) {
		c.MaxConcurrent = 4
		c.Metrics = reg
	})
	for i, q := range miniWorkload[:4] {
		resp, err := st.srv.Do(Request{ID: q.ID, Pred: query.MustParse(q.Pred)})
		if err != nil {
			t.Fatal(err)
		}
		if resp.QueueWait > 10*time.Millisecond {
			t.Errorf("session %d QueueWait = %v on an idle server", i, resp.QueueWait)
		}
		if resp.Service <= 0 {
			t.Errorf("session %d Service = %v, want > 0", i, resp.Service)
		}
	}
	if got := reg.Histogram("serve_admission_wait_ns", "").Count(); got != 4 {
		t.Errorf("serve_admission_wait_ns observed %d sessions, want 4", got)
	}
}

// TestShardGaugesReadExecutingLegs: the shard load gauges are read at
// scrape time from the replicas' own counters, so while a sharded session's
// legs execute, each shard's serve_shard_active counts its leg, and once
// they finish every load gauge reads zero again.
func TestShardGaugesReadExecutingLegs(t *testing.T) {
	reg := metrics.New()
	entered := make(chan struct{}, 2)
	release := make(chan struct{})
	srv := newMiniSharded(t, 40, 2, 1, func(cfg *ShardedConfig) {
		cfg.Base.Metrics = reg
		cfg.Builder = testkit.Builder{UDF: blockUDF{UDF: 40, entered: entered, release: release}}
	})
	done := make(chan error)
	go func() {
		_, err := srv.Do(Request{ID: "parked", Pred: query.MustParse("t=SUV")})
		done <- err
	}()
	<-entered
	<-entered // both legs are inside their UDF
	load := func(name string, labels ...metrics.Label) float64 { return reg.Gauge(name, "", labels...).Value() }
	for i := 0; i < 2; i++ {
		if got := load("serve_shard_active", shardLabel(i)); got != 1 {
			t.Errorf("serve_shard_active{shard=%d} = %v while its leg executes, want 1", i, got)
		}
	}
	if got := load("serve_active_sessions"); got != 2 {
		t.Errorf("serve_active_sessions = %v while two legs execute, want 2", got)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if a, q := load("serve_shard_active", shardLabel(i)), load("serve_shard_queue_depth", shardLabel(i)); a != 0 || q != 0 {
			t.Errorf("shard %d after the session: active %v, queued %v; want 0", i, a, q)
		}
	}
}
