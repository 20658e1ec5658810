#!/usr/bin/env bash
# Builds the benchmark inside the checkout — build cache, temporary files,
# Go's own configuration and the binary all under .bench_build/ — and runs
# it with the arguments given. BENCHMARK.json names this script as the
# command; by hand, `go run ./benchmark <flags>` from the repository root
# does the same.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
# With telemetry at its default ("local") the first go command to see a fresh
# configuration directory starts a detached child that outlives it; a run
# must leave no process behind, also when the build fails.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/benchmark" ./benchmark
# A driver's checkout is not a git repository; never look above it for one.
BENCH_COMMIT=$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git describe --always --dirty --abbrev=12 2>/dev/null || echo unknown)
export BENCH_COMMIT
exec "$build/benchmark" "$@"
