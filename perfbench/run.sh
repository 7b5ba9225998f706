#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (compiler cache, binary) stays in
# .bench_build at the checkout root, and the Go toolchain is kept offline.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
# XDG_CONFIG_HOME keeps the go command's own telemetry counters in here too
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
  GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
  GOPROXY=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" "$@"
