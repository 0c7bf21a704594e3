#!/usr/bin/env bash
# Records the smoke figures the benchdiff gate compares against
# BENCH_baseline.json. ci.yml's bench-regression and refresh-baseline
# jobs both call this, so the gate and its baseline always come from
# the same command list.
#
#   smoke-figures.sh [path to spectm-bench]     (default ./bin/spectm-bench)
set -euo pipefail
bench=${1:-./bin/spectm-bench}

figure() { # figure NAME OUT [extra flags]
  local name=$1 out=$2
  shift 2
  "$bench" -figure "$name" -duration 500ms -threads 1,2 "$@" -json "$out"
}

figure 1 BENCH_fig1.json
figure map BENCH_map.json
figure cc BENCH_cc.json
figure scan BENCH_scan.json
# 8k keys: the always-policy point prepopulates through blocking group
# commits, so a small key population keeps the smoke fast.
figure durable BENCH_durable.json -keyrange 8192
# In-process primary + replicas; the write sweep's allocs/op counts the
# replica appliers too (process-wide), so ci.yml gates this series
# through a separate, wider-slack benchdiff invocation.
figure repl BENCH_repl.json -keyrange 8192
