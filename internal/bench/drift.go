package bench

import (
	"fmt"

	"probpred/internal/blob"
	"probpred/internal/core"
	"probpred/internal/data"
	"probpred/internal/mathx"
	"probpred/internal/query"
)

// Drift is an extension experiment beyond the paper: the paper's §3 notes
// that PPs do not support UDFs that adapt over time, and A.5 handles
// mis-estimated reductions at runtime — but sensor/illumination drift in the
// *inputs* is the common failure in deployed camera systems. This
// experiment trains a PP on the stream prefix, then tracks its empirical
// accuracy and reduction over successive windows of a drifting stream,
// with and without periodic recalibration (threshold re-anchoring on a
// small freshly-labeled sample; PP.Recalibrate — no retraining).
func Drift(cfg Config) (*Report, error) {
	rep := &Report{ID: "drift",
		Title: "Input drift: stale thresholds vs periodic recalibration (a target 0.95, no retraining)"}
	rows := cfg.scale(24000, 8000)
	stream := data.Traffic(data.TrafficConfig{Rows: rows, Seed: cfg.Seed, Drift: 2.5})
	clause := "t=SUV"
	pred := query.MustParse(clause)
	labeled, err := data.TrafficSet(stream, pred)
	if err != nil {
		return nil, err
	}
	prefix := rows / 6
	prefixSet := blob.Set{Blobs: labeled.Blobs[:prefix], Labels: labeled.Labels[:prefix]}
	train, val, _ := prefixSet.Split(mathx.NewRNG(cfg.Seed^0xd41f7), 0.8, 0.2)
	stale, err := core.Train(clause, train, val, core.TrainConfig{
		Approach: "Raw+SVM", Seed: cfg.Seed, SVM: svmConfigForTraffic()})
	if err != nil {
		return nil, err
	}
	recal, err := core.Train(clause, train, val, core.TrainConfig{
		Approach: "Raw+SVM", Seed: cfg.Seed, SVM: svmConfigForTraffic()})
	if err != nil {
		return nil, err
	}

	const a = 0.95
	windows := 5
	windowSize := (rows - prefix) / windows
	tb := &table{header: []string{"window", "stale acc", "stale r", "recal acc", "recal r"}}
	var staleAccSum, recalAccSum float64
	for w := 0; w < windows; w++ {
		lo := prefix + w*windowSize
		hi := lo + windowSize
		window := blob.Set{Blobs: labeled.Blobs[lo:hi], Labels: labeled.Labels[lo:hi]}
		// Recalibrate on a small labeled sample from the start of the
		// window (in a live system, the plan's side-output labels).
		sampleN := windowSize / 8
		sample := blob.Set{Blobs: window.Blobs[:sampleN], Labels: window.Labels[:sampleN]}
		if sample.Positives() > 0 && sample.Positives() < sample.Len() {
			if err := recal.Recalibrate(sample); err != nil {
				return nil, err
			}
		}
		rest := blob.Set{Blobs: window.Blobs[sampleN:], Labels: window.Labels[sampleN:]}
		sm := core.Evaluate(stale, rest, a)
		rm := core.Evaluate(recal, rest, a)
		tb.add(fmt.Sprintf("%d", w+1), f3(sm.Accuracy), f3(sm.Reduction),
			f3(rm.Accuracy), f3(rm.Reduction))
		staleAccSum += sm.Accuracy
		recalAccSum += rm.Accuracy
	}
	rep.Lines = tb.render()
	rep.addf("average accuracy: stale %.3f vs recalibrated %.3f (target %.2f)",
		staleAccSum/float64(windows), recalAccSum/float64(windows), a)
	return rep, nil
}
