#!/usr/bin/env bash
# Driver entry point (BENCHMARK.json "command"): builds the benchmark
# from source into .bench_build/ of the current checkout, keeping the Go
# build cache there too so nothing is written outside the checkout, then
# runs it with the driver's arguments. In a directory without the
# module's go.mod and internal/ packages the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/sdrbench" ./benchmark
exec "$build/sdrbench" "$@"
