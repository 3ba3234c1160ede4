#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root, for example:
#
#   bash benchmark/run.sh -workload mh-single-bus -seed 1 -seconds 10 -trace 0
#
# The build cache, module cache and binary live in .bench_build/ under
# the working directory, so nothing is written outside it.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=
(cd "$(dirname "$0")" && go build -o "$build/incdes-benchmark" .)
exec "$build/incdes-benchmark" "$@"
