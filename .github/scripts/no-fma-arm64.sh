#!/usr/bin/env bash
# DNN and SVM training and the traffic generator must compute the same bits
# on every GOARCH, so their float sweeps may not fuse a multiply with its add
# (FMADD, FMSUB, FNMADD, FNMSUB on arm64). No arm64 test runs on an amd64 host, so this reads the arm64
# assembly listing instead. It fails if a function below holds a fused
# instruction, or is missing from the listing (a rename would otherwise
# empty the check). Inlined callees show up in their callers' listings.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
funcs=(
	probpred/internal/mathx.Sweep
	probpred/internal/mathx.sweep
	probpred/internal/mathx.sweepGo
	probpred/internal/mathx.MomentumStep
	probpred/internal/mathx.step
	probpred/internal/mathx.stepGo
	probpred/internal/mathx.Axpy
	probpred/internal/mathx.Dot
	probpred/internal/dnn.Train
	'probpred/internal/dnn.(*trainer).backward'
	'probpred/internal/dnn.(*trainer).update'
	probpred/internal/svm.Train
	probpred/internal/svm.hingeAvgPass
	probpred/internal/svm.hingePass
	probpred/internal/svm.shrinkAvgPass
	probpred/internal/svm.shrinkPass
	probpred/internal/data.Traffic
	probpred/internal/data.sampleSpeed
	probpred/internal/data.embed
	probpred/internal/data.oneHot
	probpred/internal/data.unitDirections
)
listing=$(GOARCH=arm64 go build -gcflags=-S ./internal/mathx ./internal/dnn ./internal/svm ./internal/data 2>&1)
status=0
for fn in "${funcs[@]}"; do
	body=$(awk -v fn="$fn" '/^[^ \t]/ { on = ($1 == fn && $2 == "STEXT") } on' <<<"$listing")
	if [ -z "$body" ]; then
		echo "error: $fn is not in the arm64 listing" >&2
		status=1
	elif fused=$(grep -E '\bFN?M(ADD|SUB)[DS]\b' <<<"$body"); then
		echo "error: $fn fuses a multiply with an add on arm64:" >&2
		printf '%s\n' "$fused" >&2
		status=1
	fi
done
[ "$status" -ne 0 ] || echo "no fused multiply-add in ${#funcs[@]} functions of the arm64 listing"
exit "$status"
