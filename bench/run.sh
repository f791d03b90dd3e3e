#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh --workload serve_dup90 --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (binary, Go build cache, temporary files, traces) stays under the build
# directory: $CARGO_TARGET_DIR when set, .bench_build otherwise.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd bench && go build -o "$out/dsmbench" .)
exec "$out/dsmbench" --trace-dir "$out" "$@"
