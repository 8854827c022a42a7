#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the root of a checkout:
#
#   bash benchmark/run.sh                      # every workload, timed + traced
#   bash benchmark/run.sh --workload still-hd --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh --selfcheck
#
# Everything the build and the runs write stays inside the checkout: the
# binary, the Go build cache and the runs' scratch stores under
# .bench_build/, traces under benchmark/out/.
set -euo pipefail
root="$(pwd)"
test -f "$root/go.mod" -a -f "$root/benchmark/go.mod" || {
  echo "benchmark/run.sh: run from the root of a checkout of the smol repository" >&2
  exit 2
}
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export GOMODCACHE="$root/.bench_build/gomodcache" # never filled: there are no dependencies to fetch
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off GOENV=off
go build -C "$root/benchmark" -o "$root/.bench_build/benchmark" .
exec "$root/.bench_build/benchmark" "$@"
