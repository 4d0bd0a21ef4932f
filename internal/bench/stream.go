package bench

// Stream is the streaming-ingestion drift scenario (DESIGN.md "Streaming
// ingestion"): a segment-versioned corpus whose label distribution inverts
// mid-stream, served by standing queries whose PP is trained incrementally
// — warm-started — segment by segment. The experiment shows the full
// watchdog arc (trip on drift → NoP fallback → retrain on fresh labels →
// probation → close) with the per-segment cluster cost ratio against the
// NoP plan recovering below 0.8 once the retrained PP is live,
// plus a frozen-corpus check that per-segment deltas concatenate
// byte-identically to the one-shot batch query. TestScenarioGates requires
// backfill equivalence, the trip happening, the breaker closing again,
// post-recovery accuracy >= the watchdog's healthy threshold and pre-drift
// and post-recovery cost ratios in (0, 0.8].

import (
	"fmt"
	"strings"

	"probpred/internal/blob"
	"probpred/internal/core"
	"probpred/internal/engine"
	"probpred/internal/mathx"
	"probpred/internal/online"
	"probpred/internal/optimizer"
	"probpred/internal/query"
	"probpred/internal/serve"
	"probpred/internal/stream"
)

// A stream blob carries two features: x0 ∈ [0,1) and a regime bit. Ground
// truth is s = 80·x0 in regime 0 and s = 80·(1−x0) in regime 1, so a PP
// trained before the inversion is exactly anti-correlated with truth after
// it — the worst-case drift the watchdog exists for.
func segStreamBlobs(n int, seed uint64, startID int, inverted bool) []blob.Blob {
	rng := mathx.NewRNG(seed)
	out := make([]blob.Blob, n)
	reg := 0.0
	if inverted {
		reg = 1
	}
	for i := range out {
		out[i] = blob.FromDense(startID+i, mathx.Vec{rng.Float64(), reg})
	}
	return out
}

func segStreamLookup(b blob.Blob) query.Lookup {
	return func(col string) (query.Value, bool) {
		if col != "s" {
			return query.Value{}, false
		}
		x := b.Dense[0]
		if b.Dense[1] != 0 {
			x = 1 - x
		}
		return query.Number(80 * x), true
	}
}

// segStreamUDF materializes the s column — the expensive stage the PP
// short-circuits.
type segStreamUDF struct{ cost float64 }

func (u segStreamUDF) Name() string  { return "speedUDF" }
func (u segStreamUDF) Cost() float64 { return u.cost }
func (u segStreamUDF) Apply(b engine.Batch) error {
	vals := b.Column("s")
	for i := range vals {
		vals[i], _ = segStreamLookup(b.Blob(i))("s")
	}
	return nil
}

// segStreamBuilder implements serve.CorpusBuilder over any blob slice:
// scan → [PP filter] → UDF → σ.
type segStreamBuilder struct{ udf engine.Processor }

func (b *segStreamBuilder) UDFCost(query.Pred) (float64, error) { return b.udf.Cost(), nil }

func (b *segStreamBuilder) BuildOver(blobs []blob.Blob, pred query.Pred, filter engine.BlobFilter) (engine.Plan, error) {
	return engine.InferencePlan(blobs, filter, []engine.Processor{b.udf}, pred), nil
}

// streamSegment is one ingested segment's outcome.
type streamSegment struct {
	Index int
	// Regime is 0 before the label inversion, 1 after.
	Regime int
	Rows   int
	// Injected reports whether the standing query ran with a PP filter.
	Injected bool
	// Accuracy is the audited realized accuracy (retained/expected); -1 when
	// the segment carried no accuracy evidence.
	Accuracy float64
	// CostRatio is the segment's virtual cluster cost with the standing
	// query's plan over its cost with the PP-less baseline plan.
	CostRatio float64
	// Breaker is the watchdog circuit state after the segment landed.
	Breaker string
	// Trainings / Trips are cumulative counts after the segment.
	Trainings int
	Trips     int
}

// renderStreamRows flattens result rows to the byte-comparison primitive.
func renderStreamRows(resp *serve.Response) string {
	var sb strings.Builder
	for _, r := range resp.Result.Rows {
		fmt.Fprintf(&sb, "%d:%v;", r.Blob.ID, r.Columns())
	}
	return sb.String()
}

// Stream is the registry entry: the report of runStream.
func Stream(cfg Config) (*Report, error) {
	_, rep, err := runStream(cfg)
	return rep, err
}

// runStream runs the drift scenario and the frozen-corpus backfill
// equivalence pass, returning the per-segment timeline (whose structure
// TestStreamBenchQuick checks) beside the rendered report.
func runStream(cfg Config) ([]streamSegment, *Report, error) {
	const (
		clause   = "s>40"
		accuracy = 0.9
		// margin is the watchdog's accuracy slack: a segment is healthy when
		// observed >= accuracy - margin, which is also the recovery gate.
		margin  = 0.08
		udfCost = 40.0
	)
	segSize := cfg.scale(400, 150)
	nSegs := cfg.scale(30, 20)
	// The inversion lands one segment after a scheduled retraining (the
	// cadence is every 4 segments, with the cold start at segment 0), so
	// the stale model serves K=3 breaching segments before the next
	// scheduled retraining could silently absorb the drift — the watchdog,
	// not the schedule, must catch it.
	driftAt := (nSegs/2/4)*4 + 1

	sys, err := online.New(online.Config{
		Clauses:   []string{clause},
		MinLabels: segSize,
		// Scheduled (warm) retrainings run every 4 segments: incremental
		// enough to track slow drift, slow enough that the mid-run label
		// inversion accumulates K consecutive breaches and demonstrably
		// trips the watchdog instead of being silently absorbed by the next
		// scheduled retraining.
		RetrainEvery: 4 * segSize,
		BufferCap:    segSize + segSize/2,
		Train:        core.TrainConfig{Approach: "Raw+SVM", Seed: cfg.Seed + 1},
		WarmStart:    true,
		Seed:         cfg.Seed + 2,
		Watchdog:     online.WatchdogConfig{K: 3, Margin: margin, FreshLabels: segSize + segSize/2},
	})
	if err != nil {
		return nil, nil, err
	}
	builder := &segStreamBuilder{udf: segStreamUDF{cost: udfCost}}
	exec := engine.Config{NoStageOverhead: true}
	srv, err := serve.New(serve.Config{
		Optimizer: optimizer.New(sys.Corpus()),
		Corpus:    builder,
		Accuracy:  accuracy,
		Exec:      exec,
		Metrics:   cfg.Metrics,
	})
	if err != nil {
		return nil, nil, err
	}
	ing, err := stream.New(stream.Config{
		Server: srv,
		Corpus: stream.NewSegmentedCorpus(),
		Online: sys,
		Lookup: segStreamLookup,
		Seed:   cfg.Seed + 3,
	})
	if err != nil {
		return nil, nil, err
	}
	pred := query.MustParse(clause)
	if err := ing.Register(stream.Query{ID: "SQ", Pred: clause, Accuracy: accuracy}); err != nil {
		return nil, nil, err
	}

	var timeline []streamSegment
	for i := 0; i < nSegs; i++ {
		inverted := i >= driftAt
		blobs := segStreamBlobs(segSize, cfg.Seed+100+uint64(i), i*segSize, inverted)
		deltas, err := ing.Ingest(blobs)
		if err != nil {
			return nil, nil, err
		}
		d := deltas[0]

		// NoP baseline: the same segment through the unmodified plan.
		nopPlan, err := builder.BuildOver(blobs, pred, nil)
		if err != nil {
			return nil, nil, err
		}
		nop, err := engine.Run(nopPlan, exec)
		if err != nil {
			return nil, nil, err
		}

		seg := streamSegment{
			Index:     d.Segment.Index,
			Rows:      len(d.Resp.Result.Rows),
			Injected:  d.Resp.Decision.Inject,
			Accuracy:  -1,
			Breaker:   sys.Breaker(clause).String(),
			Trainings: sys.Trainings,
			Trips:     sys.Trips,
		}
		if inverted {
			seg.Regime = 1
		}
		if d.Audited {
			seg.Accuracy = d.Observed
		}
		if nop.ClusterTime > 0 {
			seg.CostRatio = d.Resp.Result.ClusterTime / nop.ClusterTime
		}
		timeline = append(timeline, seg)
	}

	// Windows: pre-drift segments served under an injected PP; the recovered
	// window is everything after the last breaker transition back to closed
	// following the trip.
	var preRatios []float64
	for _, s := range timeline[:driftAt] {
		if s.Injected {
			preRatios = append(preRatios, s.CostRatio)
		}
	}
	recoveredFrom := -1
	for i := driftAt; i < len(timeline); i++ {
		s := timeline[i]
		if s.Trips > 0 && s.Breaker == "closed" && s.Trainings > timeline[driftAt-1].Trainings {
			recoveredFrom = i
			break
		}
	}
	// Tripped: the inversion tripped the clause's breaker. Recovered: a
	// post-trip retraining ran and the breaker is closed again at the end.
	tripped := sys.Trips > 0
	recovered := recoveredFrom >= 0 && timeline[len(timeline)-1].Breaker == "closed"
	var recRatios, recAccuracies []float64
	if recoveredFrom >= 0 {
		for _, s := range timeline[recoveredFrom:] {
			recRatios = append(recRatios, s.CostRatio)
			if s.Accuracy >= 0 {
				recAccuracies = append(recAccuracies, s.Accuracy)
			}
		}
	}
	preCostRatio, recCostRatio := mathx.Mean(preRatios), mathx.Mean(recRatios)
	recAccuracy := mathx.Mean(recAccuracies)

	// Frozen-corpus backfill equivalence: a fresh server over the trained
	// corpus (no online loop, so PP state is frozen), fed segment-by-segment
	// and compared byte-for-byte against the one-shot batch query.
	const backfillSegments = 4
	backfillEqual, err := streamBackfillEqual(sys.Corpus(), builder, exec, accuracy, clause, cfg, backfillSegments)
	if err != nil {
		return nil, nil, err
	}

	rep := &Report{ID: "stream", Title: fmt.Sprintf(
		"Streaming ingestion under drift: %s over %d segments x %d blobs (inversion at segment %d)",
		clause, nSegs, segSize, driftAt)}
	tb := &table{header: []string{"seg", "regime", "rows", "acc", "cost ratio", "breaker", "trainings", "trips"}}
	for _, s := range timeline {
		acc := "-"
		if s.Accuracy >= 0 {
			acc = f3(s.Accuracy)
		}
		tb.add(fmt.Sprintf("%d", s.Index), fmt.Sprintf("%d", s.Regime), fmt.Sprintf("%d", s.Rows),
			acc, f3(s.CostRatio), s.Breaker,
			fmt.Sprintf("%d", s.Trainings), fmt.Sprintf("%d", s.Trips))
	}
	rep.Lines = tb.render()
	rep.addf("")
	rep.addf("trip -> retrain -> recovery: tripped=%v recovered=%v trainings=%d", tripped, recovered, sys.Trainings)
	rep.addf("cost ratio vs NoP: pre-drift %.3f, post-recovery %.3f   post-recovery accuracy %.3f (target %.2f, healthy >= %.2f)",
		preCostRatio, recCostRatio, recAccuracy, accuracy, accuracy-margin)
	rep.addf("backfill == live over %d frozen segments: %v", backfillSegments, backfillEqual)
	rep.metric("watchdog_tripped", b2f(tripped))
	rep.metric("watchdog_recovered", b2f(recovered))
	rep.metric("pre_drift_cost_ratio", preCostRatio)
	rep.metric("recovered_cost_ratio", recCostRatio)
	rep.metric("recovered_accuracy", recAccuracy)
	rep.metric("recovered_accuracy_floor", accuracy-margin)
	rep.metric("backfill_equal", b2f(backfillEqual))
	rep.metric("trainings", float64(sys.Trainings))
	return timeline, rep, nil
}

// streamBackfillEqual ingests mixed-regime segments through a frozen stack
// and byte-compares concatenated deltas against the batch query.
func streamBackfillEqual(corpus *optimizer.Corpus, builder serve.CorpusBuilder, exec engine.Config,
	accuracy float64, clause string, cfg Config, nSegs int) (bool, error) {
	srv, err := serve.New(serve.Config{
		Optimizer: optimizer.New(corpus),
		Corpus:    builder,
		Accuracy:  accuracy,
		Exec:      exec,
	})
	if err != nil {
		return false, err
	}
	ing, err := stream.New(stream.Config{Server: srv, Corpus: stream.NewSegmentedCorpus()})
	if err != nil {
		return false, err
	}
	if err := ing.Register(stream.Query{ID: "BF", Pred: clause, Accuracy: accuracy}); err != nil {
		return false, err
	}
	var live strings.Builder
	segSize := cfg.scale(300, 100)
	for i := 0; i < nSegs; i++ {
		blobs := segStreamBlobs(segSize, cfg.Seed+900+uint64(i), i*segSize, i%2 == 1)
		deltas, err := ing.Ingest(blobs)
		if err != nil {
			return false, err
		}
		live.WriteString(renderStreamRows(deltas[0].Resp))
	}
	batch, err := ing.BatchQuery("BF")
	if err != nil {
		return false, err
	}
	return live.String() == renderStreamRows(batch), nil
}
