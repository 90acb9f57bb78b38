#!/usr/bin/env bash
# Measures the simulation engine's hot-path throughput and records it in
# BENCH_engine.json at the repo root.
#
# Usage: scripts/bench_engine.sh [--smoke]
#   --smoke  1% iteration counts, no fig3a and no check_explore timing (fast
#            CI sanity check)
#
# The seed_baseline block holds the same four workloads measured with this
# exact benchmark source compiled against the pre-overhaul engine (commit
# dc9de22: std::function + std::priority_queue events, ucontext fibers,
# deque-based UDN queues, per-hop NoC routing), g++ -O2 -DNDEBUG, single-core
# x86-64 VM, 2026-08-05. Absolute rates are machine-specific; the speedup
# ratios are the durable result.
#
# check_explore_2000_wall_seconds is fixed checking work: the wall time of
# `check_explore --schedules 2000 --seed 7 --fuzz-machines --jobs 1` (record
# and check 2,000 drawn schedules on one host thread; the complete search
# dominates it). The checker_baseline block holds the same row measured at
# commit a13b9eb, the last commit before the typed linearizability search,
# on the host named in "host", alternated with the current tree.
#
# engine_code_lines is the size of the engine fast path: the non-blank lines
# that are not // comments in the event queue, the scheduler, the simulated
# execution context, the core model and the coherence model.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${BUILD_DIR:-build}"
SMOKE=0
for a in "$@"; do
  [ "$a" = "--smoke" ] && SMOKE=1
done

cmake -S . -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "$BUILD" -j"$(nproc)" \
  --target engine_micro fig3a_counter_throughput check_explore >/dev/null

TMP_JSON="$(mktemp)"
trap 'rm -f "$TMP_JSON"' EXIT
if [ "$SMOKE" = 1 ]; then
  "$BUILD"/bench/engine_micro --smoke --json "$TMP_JSON"
else
  "$BUILD"/bench/engine_micro --json "$TMP_JSON"
fi

# Seed-engine rates, in the order engine_micro emits its workloads.
SEED_RATES=(10280073 1819949 294410 528906)
SEED_NAMES=(event_churn fiber_churn udn_pingpong udn_flood)

mapfile -t RATES < <(grep -o '"rate": [0-9.]*' "$TMP_JSON" | awk '{print $2}')

SPEEDUPS=""
for i in "${!SEED_NAMES[@]}"; do
  r="${RATES[$i]:-0}"
  s=$(awk -v a="$r" -v b="${SEED_RATES[$i]}" 'BEGIN { printf "%.2f", a / b }')
  SPEEDUPS+="    \"${SEED_NAMES[$i]}\": $s"
  [ "$i" -lt $((${#SEED_NAMES[@]} - 1)) ] && SPEEDUPS+=$',\n'
done

FIG3A="null"
if [ "$SMOKE" = 0 ]; then
  T0=$(date +%s%N)
  "$BUILD"/bench/fig3a_counter_throughput --jobs 1 >/dev/null
  T1=$(date +%s%N)
  FIG3A=$(awk -v ns=$((T1 - T0)) 'BEGIN { printf "%.2f", ns / 1e9 }')
fi

CHECK_EXPLORE="null"
if [ "$SMOKE" = 0 ]; then
  T0=$(date +%s%N)
  "$BUILD"/src/check/check_explore --schedules 2000 --seed 7 --fuzz-machines \
    --jobs 1 >/dev/null
  T1=$(date +%s%N)
  CHECK_EXPLORE=$(awk -v ns=$((T1 - T0)) 'BEGIN { printf "%.2f", ns / 1e9 }')
fi

# Steady-state heap growths of the pre-sized event queue (engine_micro's
# probe workload; the binary itself exits 1 when this is nonzero).
HEAP_GROWS=$(grep -o '"heap_grows": [0-9]*' "$TMP_JSON" | awk '{print $2}')
HEAP_GROWS="${HEAP_GROWS:-null}"

ENGINE_FILES=(src/sim/event_queue.hpp src/sim/scheduler.hpp
  src/sim/scheduler.cpp src/runtime/sim_context.hpp src/arch/core.hpp
  src/arch/coherence.hpp src/arch/coherence.cpp)
ENGINE_CODE_LINES=$(cat "${ENGINE_FILES[@]}" | grep -cvE '^[[:space:]]*($|//)')

{
  echo '{'
  echo '  "generated_by": "scripts/bench_engine.sh",'
  echo "  \"smoke\": $([ "$SMOKE" = 1 ] && echo true || echo false),"
  echo "  \"host\": \"$(uname -srm)\","
  echo '  "engine_micro":'
  sed 's/^/  /' "$TMP_JSON" | sed '$ s/$/,/'
  echo '  "fig3a_default_wall_seconds": '"$FIG3A"','
  echo '  "check_explore_2000_wall_seconds": '"$CHECK_EXPLORE"','
  echo '  "steady_state_heap_grows": '"$HEAP_GROWS"','
  echo '  "engine_code_lines": '"$ENGINE_CODE_LINES"','
  echo '  "seed_baseline": {'
  echo '    "commit": "dc9de22",'
  echo '    "flags": "g++ -std=c++20 -O2 -DNDEBUG",'
  echo '    "event_churn": 10280073,'
  echo '    "fiber_churn": 1819949,'
  echo '    "udn_pingpong": 294410,'
  echo '    "udn_flood": 528906,'
  echo '    "fig3a_default_wall_seconds": 56.19'
  echo '  },'
  echo '  "checker_baseline": {'
  echo '    "commit": "a13b9eb",'
  echo '    "check_explore_2000_wall_seconds": 3.67'
  echo '  },'
  echo '  "speedup_vs_seed": {'
  printf '%s\n' "$SPEEDUPS"
  echo '  }'
  echo '}'
} > BENCH_engine.json

echo "wrote BENCH_engine.json"
