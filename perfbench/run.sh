#!/usr/bin/env bash
# Builds the host-cost benchmark from the enclosing source tree and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload smallop --seed 1 --seconds 10 --trace 0
# Every build product and the Go build cache stay under the build directory
# (CARGO_TARGET_DIR when set, else .bench_build), so the benchmark reads and
# writes nothing outside the tree but the Go toolchain itself.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
