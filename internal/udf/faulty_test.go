package udf

import (
	"errors"
	"testing"

	"probpred/internal/data"
	"probpred/internal/engine"
	"probpred/internal/fault"
	"probpred/internal/query"
)

func trafficBlobsForTest(n int, seed uint64) []engine.Row {
	stream := data.Traffic(data.TrafficConfig{Rows: n, Seed: seed})
	rows := make([]engine.Row, n)
	for i, b := range stream {
		rows[i] = engine.NewRow(b)
	}
	return rows
}

// timedOne runs one attempt of f on r: a batch of one.
func timedOne(f *FaultyProcessor, r engine.Row) ([]engine.Row, float64, error) {
	out, elapsed, err := engine.ApplyRows(f, []engine.Row{r})
	return out, elapsed[0], err
}

func TestFaultyPassthrough(t *testing.T) {
	p, err := TrafficUDFFor("t", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := Faulty(p, fault.NewInjector(1)) // no faults configured
	if f.Name() != p.Name() || f.Cost() != p.Cost() {
		t.Fatal("wrapper must pass name and cost through")
	}
	for _, r := range trafficBlobsForTest(50, 2) {
		want, _, err := engine.ApplyRows(p, []engine.Row{r})
		if err != nil {
			t.Fatal(err)
		}
		got, elapsed, err := timedOne(f, r)
		if err != nil {
			t.Fatal(err)
		}
		if elapsed != p.Cost() {
			t.Fatalf("healthy elapsed = %v, want %v", elapsed, p.Cost())
		}
		gv, _ := got[0].Get("t")
		wv, _ := want[0].Get("t")
		if gv != wv {
			t.Fatalf("wrapper changed output: %v vs %v", gv, wv)
		}
	}
}

func TestFaultyInjectsTransientsAndRecovers(t *testing.T) {
	p, err := TrafficUDFFor("c", 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(7)
	inj.SetDefault(fault.Spec{TransientRate: 0.3, MaxConsecutive: 3})
	f := Faulty(p, inj)
	rows := trafficBlobsForTest(400, 4)
	sawFault := false
	for _, r := range rows {
		// Emulate the engine's retry loop with a generous budget.
		var lastErr error
		ok := false
		for attempt := 0; attempt < 5; attempt++ {
			_, _, err := timedOne(f, r)
			if err == nil {
				ok = true
				break
			}
			lastErr = err
			var te *fault.TransientError
			if !errors.As(err, &te) {
				t.Fatalf("unexpected error type: %v", err)
			}
			sawFault = true
		}
		if !ok {
			t.Fatalf("blob %d never recovered: %v", r.Blob.ID, lastErr)
		}
	}
	if !sawFault {
		t.Fatal("30% rate injected nothing over 400 blobs")
	}
}

func TestFaultyStragglerInflatesElapsed(t *testing.T) {
	p, err := TrafficUDFFor("s", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(11)
	inj.SetDefault(fault.Spec{StragglerRate: 0.2, StragglerFactor: 12})
	f := Faulty(p, inj)
	slow := 0
	for _, r := range trafficBlobsForTest(300, 6) {
		_, elapsed, err := timedOne(f, r)
		if err != nil {
			t.Fatal(err)
		}
		switch elapsed {
		case p.Cost():
		case p.Cost() * 12:
			slow++
		default:
			t.Fatalf("elapsed = %v, want cost or 12x cost", elapsed)
		}
	}
	if slow < 30 || slow > 90 {
		t.Fatalf("stragglers = %d/300, want ~60", slow)
	}
}

func TestFaultyResetReplaysSchedule(t *testing.T) {
	p, err := TrafficUDFFor("t", 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(13)
	inj.SetDefault(fault.Spec{TransientRate: 0.5})
	f := Faulty(p, inj)
	rows := trafficBlobsForTest(100, 8)
	record := func() []bool {
		out := make([]bool, len(rows))
		for i, r := range rows {
			_, _, err := timedOne(f, r)
			out[i] = err != nil
		}
		return out
	}
	first := record()
	f.Reset()
	second := record()
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("schedule diverged at blob %d after Reset", i)
		}
	}
}

// TestFaultyEndToEndByteIdentical is the wrapper-level version of the
// acceptance criterion: a full plan with 10% transient injection and retries
// produces exactly the rows of the fault-free run, while charging more
// virtual time.
func TestFaultyEndToEndByteIdentical(t *testing.T) {
	stream := data.Traffic(data.TrafficConfig{Rows: 1500, Seed: 21})
	pred := query.MustParse("t=SUV & s>50")
	mkPlan := func(inj *fault.Injector) (engine.Plan, error) {
		procs, err := TrafficPipeline(pred, 0, 21)
		if err != nil {
			return engine.Plan{}, err
		}
		if inj != nil {
			procs = FaultyPipeline(procs, inj)
		}
		ops := []engine.Operator{&engine.Scan{Blobs: stream}}
		for _, p := range procs {
			ops = append(ops, &engine.Process{P: p})
		}
		ops = append(ops, &engine.Select{Pred: pred})
		return engine.Plan{Ops: ops}, nil
	}
	clean, err := mkPlan(nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.Run(clean, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.NewInjector(77)
	inj.SetDefault(fault.Spec{TransientRate: 0.10, StragglerRate: 0.02, StragglerFactor: 10, MaxConsecutive: 3})
	flaky, err := mkPlan(inj)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(flaky, engine.Config{
		Retry: engine.RetryPolicy{MaxAttempts: 6, BackoffBaseMS: 20, RowTimeoutMS: 400},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(ref.Rows) {
		t.Fatalf("rows %d vs %d", len(res.Rows), len(ref.Rows))
	}
	for i := range res.Rows {
		if res.Rows[i].Blob.ID != ref.Rows[i].Blob.ID {
			t.Fatalf("row %d diverged", i)
		}
		for _, c := range ref.Rows[i].Columns() {
			if got, err := res.Rows[i].Get(c.Name); err != nil || got != c.Val {
				t.Fatalf("row %d col %s: %v vs %v", i, c.Name, got, c.Val)
			}
		}
	}
	if res.ClusterTime <= ref.ClusterTime {
		t.Fatalf("retry work must be charged: %v vs %v", res.ClusterTime, ref.ClusterTime)
	}
}

// TestFaultyBatchRunsUnhealthyAttemptsAlone drives whole batches the way the
// engine does — each call starts at the first row not yet run, a failed row
// going again — and holds them to the engine.TimedProcessor contract: a
// failing or straggling attempt is the only row of its call, and every other
// row runs at the nominal duration. Each blob must make exactly the attempts,
// with the same durations and outputs, that batches of one make.
func TestFaultyBatchRunsUnhealthyAttemptsAlone(t *testing.T) {
	p, err := TrafficUDFFor("t", 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	rows := trafficBlobsForTest(300, 12)
	type trace struct {
		ids     []int
		elapsed []float64
		calls   int
	}
	drive := func(size int) (*FaultyProcessor, trace) {
		inj := fault.NewInjector(5)
		inj.SetDefault(fault.Spec{TransientRate: 0.2, StragglerRate: 0.1, MaxConsecutive: 2})
		f := Faulty(p, inj)
		var tr trace
		in := rows
		for len(in) > 0 {
			batch := in
			if len(batch) > size {
				batch = batch[:size]
			}
			out, elapsed, err := engine.ApplyRows(f, batch)
			tr.calls++
			if len(elapsed) == 0 || len(elapsed) > len(batch) {
				t.Fatalf("size %d: a %d-row batch timed %d rows", size, len(batch), len(elapsed))
			}
			for j, e := range elapsed {
				unhealthy := e != p.Cost() || (err != nil && j == len(elapsed)-1)
				if unhealthy && len(elapsed) != 1 {
					t.Fatalf("size %d: an unhealthy attempt shared its call with %d rows", size, len(elapsed)-1)
				}
			}
			tr.elapsed = append(tr.elapsed, elapsed...)
			for _, r := range out {
				tr.ids = append(tr.ids, r.Blob.ID)
			}
			ran := len(elapsed)
			if err != nil {
				var te *fault.TransientError
				if !errors.As(err, &te) {
					t.Fatalf("size %d: unexpected error %v", size, err)
				}
				ran-- // the failed row goes again
			}
			in = in[ran:]
		}
		return f, tr
	}
	batched, bt := drive(len(rows))
	single, st := drive(1)
	if bt.calls >= st.calls/2 {
		t.Fatalf("batches took %d calls against %d rows' worth: nothing was batched", bt.calls, st.calls)
	}
	if len(bt.ids) != len(rows) || len(st.ids) != len(rows) {
		t.Fatalf("outputs: batched %d, single %d, want %d", len(bt.ids), len(st.ids), len(rows))
	}
	for i := range bt.ids {
		if bt.ids[i] != st.ids[i] {
			t.Fatalf("output %d: blob %d batched, %d single", i, bt.ids[i], st.ids[i])
		}
	}
	if len(bt.elapsed) != len(st.elapsed) {
		t.Fatalf("attempts: %d batched, %d single", len(bt.elapsed), len(st.elapsed))
	}
	for i := range bt.elapsed {
		if bt.elapsed[i] != st.elapsed[i] {
			t.Fatalf("attempt %d: %v batched, %v single", i, bt.elapsed[i], st.elapsed[i])
		}
	}
	for _, r := range rows {
		if a, b := batched.Attempts(r.Blob.ID), single.Attempts(r.Blob.ID); a != b {
			t.Fatalf("blob %d: %d attempts batched, %d single", r.Blob.ID, a, b)
		}
	}
}
