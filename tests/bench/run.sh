#!/usr/bin/env bash
# Entry point for the benchmark driver (BENCHMARK.json "command"), run
# from the root of a checkout:
#
#   bash tests/bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# It keeps everything the Go toolchain writes inside the checkout
# (.bench_build/), builds the ledger from tests/bench's own module, and
# hands over to it. The ledger builds cmd/spectm-server itself.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local

go build -C "$root/tests/bench" -o "$out/ledger" .
exec "$out/ledger" "$@"
