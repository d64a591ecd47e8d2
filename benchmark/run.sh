#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root. The build cache, the go command's own
# config and telemetry files, and the binary all stay in .bench_build there,
# so nothing is written outside the checkout.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/cache" "$build/tmp" "$build/config"
export GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

go -C benchmark build -o "$build/pipette-benchmark" .
exec "$build/pipette-benchmark" "$@"
