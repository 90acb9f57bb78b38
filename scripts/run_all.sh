#!/usr/bin/env bash
# Builds everything, runs the full test suite, every paper-figure bench and
# every example, capturing outputs under results/. This is the one-shot
# reproduction entry point.
#
# Usage: scripts/run_all.sh [--jobs N]
#   --jobs N   worker threads for the in-process run pool of every sweep
#              bench (and ctest parallelism). Defaults to $HMPS_JOBS if set,
#              else each bench picks hardware_concurrency itself.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${HMPS_JOBS:-0}"
while [ $# -gt 0 ]; do
  case "$1" in
    --jobs) JOBS="$2"; shift 2 ;;
    *) echo "run_all.sh: unknown option '$1'" >&2; exit 2 ;;
  esac
done

cmake -B build -G Ninja
cmake --build build

mkdir -p results

echo "== tests =="
ctest --test-dir build --output-on-failure 2>&1 | tee results/ctest.txt

echo "== benches =="
# stdout goes to bench_all.txt; stderr (progress lines, warnings) is kept
# visible AND captured — a silently swallowed bench failure here once cost a
# debugging session. Every hmps bench also drops its hmps-metrics-v1
# artifact next to the text output; the two google-benchmark binaries
# (native_micro, engine_micro) have their own CLI and are run bare, and so
# are the two own-loop benches (abl_server_consolidation, macro_taskpool),
# which write no artifact, run serially and reject --json and --jobs. Each
# bench's wall time is reported inline and collected in bench_times.txt so
# --jobs speedups are visible at a glance.
: > results/bench_times.txt
for b in build/bench/*; do
  if [ -f "$b" ] && [ -x "$b" ]; then
    name="$(basename "$b")"
    echo "### $name"
    t0=$(date +%s%N)
    case "$name" in
      native_micro|engine_micro|abl_server_consolidation|macro_taskpool) "$b" ;;
      *) "$b" --json "results/$name.json" --jobs "$JOBS" ;;
    esac
    t1=$(date +%s%N)
    wall=$(awk -v ns=$((t1 - t0)) 'BEGIN { printf "%.2f", ns / 1e9 }')
    echo "[time] $name: ${wall}s (jobs=$JOBS)"
    echo "$name $wall" >> results/bench_times.txt
    echo
  fi
done 2> >(tee results/bench_stderr.txt >&2) | tee results/bench_all.txt

echo "== examples =="
for e in build/examples/*; do
  if [ -f "$e" ] && [ -x "$e" ]; then
    echo "### $(basename "$e")"
    "$e"
    echo
  fi
done | tee results/examples.txt

echo "All outputs captured under results/."
