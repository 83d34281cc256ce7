#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source
# into .bench_build/ at the root of the checkout (build cache and
# temporary files included, so nothing is written outside the checkout)
# and runs it from there with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOTOOLCHAIN=local
go build -C "$here" -o "$out/spbench" .
cd "$root"
exec "$out/spbench" -rundir "$out" "$@"
