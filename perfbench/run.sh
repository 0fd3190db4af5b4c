#!/usr/bin/env bash
# Builds the benchmark and fesiaserve from this checkout's source, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload pairs --seed 1 --seconds 50 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOWORK=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
cd "$root/perfbench"
go build -o "$out/perfbench" .
go build -o "$out/fesiaserve" fesia/cmd/fesiaserve
cd "$root"
exec "$out/perfbench" -root "$root" -server "$out/fesiaserve" -work "$out/work" "$@"
