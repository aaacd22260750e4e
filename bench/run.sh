#!/usr/bin/env bash
# The command of ../BENCHMARK.json: build the benchmark from source inside
# the checkout (build cache included, so nothing is written outside it) and
# run it with the given arguments. `go run ./bench` does the same with the
# user's own build cache.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o .bench_build/satbench ./bench
exec .bench_build/satbench "$@"
