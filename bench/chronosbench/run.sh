#!/usr/bin/env bash
# Builds chronosbench from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/chronosbench/run.sh --workload fleet --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run leave behind — the Go build cache,
# temporary files, the go command's config and telemetry, the binary, CPU
# profiles and span files — goes under .bench_build/ in the current
# directory, and the build never reaches the network.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

go -C bench/chronosbench build -o "$build/chronosbench" .
exec "$build/chronosbench" "$@"
