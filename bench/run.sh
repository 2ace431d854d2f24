#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark driver and
# cmd/muontrapd from the checkout's source into .bench_build/ (with the
# Go build cache, module cache and temp files kept inside the checkout),
# then hands every argument to the driver. Build time is excluded from
# setup_s and reported as the per-layer metric bench.build_s.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off

t0=$(date +%s%N)
go build -o "$build/bin/muontrapd" ./cmd/muontrapd
(cd bench && go build -o "$build/bin/bench" .)
t1=$(date +%s%N)

export BENCH_ROOT="$root"
export BENCH_BUILD_MS=$(( (t1 - t0) / 1000000 ))
exec "$build/bin/bench" "$@"
