#!/usr/bin/env bash
# go test exits 0 when a -run or -fuzz pattern matches nothing, so renaming a
# test silently empties the gate that selected it by name. This wrapper runs
# `go test "$@"` and also fails when any package reports that nothing ran.
set -uo pipefail
out=$(go test "$@" 2>&1)
status=$?
printf '%s\n' "$out"
if grep -Eq 'no tests to run|no fuzz tests to fuzz' <<<"$out"; then
	echo "error: a -run/-fuzz pattern matched nothing in at least one package" >&2
	exit 1
fi
exit "$status"
