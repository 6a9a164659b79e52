#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage (from anywhere): bash bench/run.sh [--workload W --seed N --seconds S --trace 0|1] [-aa N] [-smoke]
# Everything the toolchain writes — build cache, temporaries, telemetry
# counters, the binary — stays under .bench_build/ at the root of the
# checkout, and it reads no user configuration and no network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOPROXY=off
go build -C bench -o "$build/fuxibench" .
exec "$build/fuxibench" "$@"
