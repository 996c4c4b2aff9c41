#!/usr/bin/env bash
# run.sh — build and run the dynaplat end-to-end benchmark.
#
# Usage (from the repository root):
#   bash _perfbench/run.sh --workload dse-explore --seed 1 --seconds 30 --trace 0
#
# The benchmark is its own Go module (it imports the dynaplat tree
# through a replace directive) in a directory whose name starts with
# `_`, so `go build ./...`, `go test ./...` and dynalint at the root
# skip it. Every file the toolchain writes — build
# cache, binary, Chrome trace, CPU profile — lands under .bench_build/
# at the repository root.
set -euo pipefail

bench_dir=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$bench_dir/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export PPROF_TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOWORK=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

(cd "$bench_dir" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build/out" "$@"
