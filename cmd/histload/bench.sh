#!/usr/bin/env bash
# Builds histload from this checkout and runs it with the given
# arguments. Run it from the repository root, e.g.
#
#   bash cmd/histload/bench.sh --workload ingest --seed 1 --seconds 20 --trace 0
#
# Every build artefact (the Go build cache included) and every file a
# run writes stays inside the checkout, under .bench_build.
set -euo pipefail
root=$(pwd)
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp" TMPDIR="$root/.bench_build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go -C cmd/histload build -o "$root/.bench_build/histload" .
exec "$root/.bench_build/histload" "$@"
