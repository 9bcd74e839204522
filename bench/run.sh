#!/usr/bin/env bash
# Builds the benchmark harness and runs it from the repository root.
#
#   bash bench/run.sh                       # one set of all five workloads
#   bash bench/run.sh -trace 1              # ... plus the traced per-layer pass
#   bash bench/run.sh --workload scale_sprint --seed 3 --seconds 15 --trace 0
#   bash bench/run.sh -compare a.json b.json
#
# Every build product, the Go build cache and the runs' working files stay
# under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
b="$PWD/.bench_build"
mkdir -p "$b/tmp" "$b/bin"
export GOCACHE="$b/gocache" GOTMPDIR="$b/tmp" GOPATH="$b/gopath" \
	XDG_CONFIG_HOME="$b/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C bench build -o "$b/bin/bench" .
exec "$b/bin/bench" "$@"
