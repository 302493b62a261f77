#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and the
# run write stays inside the checkout: the Go build cache, temp files and the
# toolchain's telemetry counters (which follow XDG_CONFIG_HOME) go to
# .bench_build/ at the checkout root, results and traces to benchmark/out/.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
BENCH_COMMIT="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT
(cd "$here" && XDG_CONFIG_HOME="$build/config" go build -o "$build/ricdbench" .)
cd "$here"
exec "$build/ricdbench" "$@"
