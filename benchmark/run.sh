#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. The Go
# build cache and the binary live under .bench_build/, so nothing is read or
# written outside the checkout; the first run in a fresh checkout pays the
# build, later runs only revalidate it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export GOCACHE="$PWD/.bench_build/gocache"
mkdir -p .bench_build
# The build stamps the commit when the checkout is a git repository; where
# git cannot answer, build without the stamp rather than not at all.
go build -o .bench_build/benchmark ./benchmark 2>/dev/null ||
	go build -buildvcs=false -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
