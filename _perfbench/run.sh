#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources into .bench_build/ and
# runs it. Run from the repository root; arguments go to the benchmark:
#
#   bash _perfbench/run.sh --workload paper-default --seed 1 --seconds 15 --trace 0
#   bash _perfbench/run.sh --workload all
set -euo pipefail
root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOPROXY=off
(cd "$root/_perfbench" && go build -trimpath -o "$build/perfbench" .) >&2
exec "$build/perfbench" --root "$root" "$@"
