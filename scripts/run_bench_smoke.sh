#!/usr/bin/env bash
# Reduced-size benchmark pass: the nightly CI job and the source of the
# committed baseline under bench_results/baseline/.
#
#   scripts/run_bench_smoke.sh [build-dir] [out-dir]
#
# CRCW_BENCH_SMOKE=1 makes every harness truncate its sweeps (size sweeps
# keep their first point, thread sweeps keep {1,2}) and paper_tables runs
# --quick with 3 reps, so one full pass stays in CI-minutes territory while
# still emitting a schema-valid BENCH_<name>.json per binary for
# scripts/bench_compare.py. New bench binaries are picked up by the glob
# below automatically — micro_reset (the full gatekeeper reset sweep, with
# its reset_tags counter) rides in this pass and the nightly bench-smoke
# workflow without further registration.
#
# To refresh the committed baseline after an intentional perf change (or
# on new reference hardware):
#
#   scripts/run_bench_smoke.sh build bench_results/baseline
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-bench_results/smoke}"
# 0.1s per measurement and 3 reps for paper_tables: the regression gate
# compares medians one-sided, so the smoke pass needs enough samples that a
# single descheduled rep cannot move the median past the 15% threshold
# (median-of-2 is a mean; median-of-3 drops the outlier).
MIN_TIME="${CRCW_BENCH_MIN_TIME:-0.1}"
mkdir -p "$OUT_DIR"
export CRCW_BENCH_SMOKE=1
export CRCW_BENCH_JSON_DIR="$OUT_DIR"

echo "== environment =="
nproc || true
echo "OMP_WAIT_POLICY=${OMP_WAIT_POLICY:-unset} CRCW_BENCH_THREADS=${CRCW_BENCH_THREADS:-unset}"

echo "== paper_tables (quick, 3 reps) =="
"$BUILD_DIR/bench/paper_tables" --quick --reps 3 > "$OUT_DIR/paper_tables.txt"

for bench in "$BUILD_DIR"/bench/*; do
  name="$(basename "$bench")"
  case "$name" in
    paper_tables|CMakeFiles|*.cmake|CTestTestfile.cmake) continue ;;
  esac
  [ -x "$bench" ] || continue
  echo "== $name =="
  "$bench" --benchmark_min_time="$MIN_TIME" > "$OUT_DIR/$name.txt"
done

echo "smoke results (BENCH_*.json + tables) in $OUT_DIR/"
