#!/usr/bin/env bash
# The PPs, the data they are trained on and their scores must be the same
# bits on every GOARCH, so no multiply in the packages below may fuse with
# its add (FMADD, FMSUB, FNMADD, FNMSUB on arm64); each product is written
# float64(a*b). No arm64 test runs on an amd64 host, so this reads the arm64
# assembly listing instead. It fails on any fused instruction in those
# packages, naming its function, or if a package is missing from the
# listing (a rename would otherwise empty the check).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
pkgs=(mathx dnn knn kde dimred svm data core)
listing=$(GOARCH=arm64 go build -gcflags=-S "${pkgs[@]/#/./internal/}" 2>&1)
status=0
for p in "${pkgs[@]}"; do
	if ! awk -v p="probpred/internal/$p." 'index($1, p) == 1 && $2 == "STEXT" { found = 1 } END { exit !found }' <<<"$listing"; then
		echo "error: probpred/internal/$p is not in the arm64 listing" >&2
		status=1
	fi
done
fused=$(awk '/^[^ \t]/ { fn = ($2 == "STEXT") ? $1 : "" } fn != "" && /[ \t]FN?M(ADD|SUB)[DS][ \t]/ { print fn ": " $0 }' <<<"$listing")
if [ -n "$fused" ]; then
	echo "error: a multiply fuses with its add on arm64:" >&2
	printf '%s\n' "$fused" >&2
	status=1
fi
[ "$status" -ne 0 ] || echo "no fused multiply-add in the arm64 listing of ${pkgs[*]}"
exit "$status"
