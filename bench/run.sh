#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from anywhere; it works from the root of the checkout it sits in:
#
#   bash bench/run.sh --workload sweep-eeg --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh run -seed 1
#
# Everything the build writes (the Go build cache, temporary files and
# the binary) goes to .bench_build/ at the checkout root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-build" GOTMPDIR="$build/tmp" \
	GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
go -C bench build -o "$build/efficsense-bench" .
exec "$build/efficsense-bench" "$@"
