#!/usr/bin/env bash
# Measures the simulation engine's hot-path throughput and records it in
# BENCH_engine.json at the repo root.
#
# Usage: scripts/bench_engine.sh [--smoke]
#   --smoke  1% iteration counts, no figure, ctest or check_explore timing
#            (fast CI sanity check)
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
# bench_code_lines counts the figure benches the same way (bench/*.cpp
# without engine_micro, native_micro and macro_taskpool).
#
# figures holds, for every figure binary in bench/ at its defaults with
# --jobs 1, the wall time and the peak RSS, and the ctest_* rows the same
# pair for a serial `ctest` of the build. Peak RSS is the largest resident
# set of any process the command ran (getrusage(RUSAGE_CHILDREN) read by
# python3, since the host may lack /usr/bin/time).
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${BUILD_DIR:-build}"
SMOKE=0
for a in "$@"; do
  [ "$a" = "--smoke" ] && SMOKE=1
done

FIGURES=(fig3a_counter_throughput fig3b_counter_latency fig3c_maxops_sweep
  fig4a_stall_breakdown fig4b_combining_rate fig4c_cs_length fig5a_queues
  fig5b_stacks fig_async_batching sec53_scalar_claims sec55_discussion
  sec6_overflow abl_hybcomb_variants abl_locks_counter
  abl_server_consolidation ext_combiners macro_taskpool service_counter
  service_queue service_sharded)

cmake -S . -B "$BUILD" -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
if [ "$SMOKE" = 1 ]; then
  cmake --build "$BUILD" -j"$(nproc)" --target engine_micro >/dev/null
else
  cmake --build "$BUILD" -j"$(nproc)" >/dev/null
fi

# Prints "WALL_SECONDS PEAK_RSS_MIB" for one run of the given command.
measure() {
  python3 - "$@" <<'PY'
import resource, subprocess, sys, time
t0 = time.monotonic()
subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL,
               stderr=subprocess.DEVNULL, check=True)
wall = time.monotonic() - t0
rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"{wall:.2f} {rss:.1f}")
PY
}

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
FIGURE_ROWS="{}"
CTEST_WALL="null"
CTEST_RSS="null"
if [ "$SMOKE" = 0 ]; then
  FIGURE_ROWS="{"
  for f in "${FIGURES[@]}"; do
    read -r wall rss < <(measure "$BUILD/bench/$f" --jobs 1)
    [ "$f" = fig3a_counter_throughput ] && FIG3A="$wall"
    FIGURE_ROWS+=$'\n'"    \"$f\": {\"wall_seconds\": $wall, \"peak_rss_mib\": $rss},"
  done
  FIGURE_ROWS="${FIGURE_ROWS%,}"$'\n  }'
  read -r CTEST_WALL CTEST_RSS < <(measure ctest --test-dir "$BUILD")
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
BENCH_CODE_LINES=$(ls bench/*.cpp | grep -vE 'engine_micro|native_micro|macro_taskpool' |
  xargs cat | grep -cvE '^[[:space:]]*($|//)')

{
  echo '{'
  echo '  "generated_by": "scripts/bench_engine.sh",'
  echo "  \"smoke\": $([ "$SMOKE" = 1 ] && echo true || echo false),"
  echo "  \"host\": \"$(uname -srm)\","
  echo '  "engine_micro":'
  sed 's/^/  /' "$TMP_JSON" | sed '$ s/$/,/'
  echo '  "fig3a_default_wall_seconds": '"$FIG3A"','
  echo '  "figures": '"$FIGURE_ROWS"','
  echo '  "ctest_wall_seconds": '"$CTEST_WALL"','
  echo '  "ctest_peak_rss_mib": '"$CTEST_RSS"','
  echo '  "check_explore_2000_wall_seconds": '"$CHECK_EXPLORE"','
  echo '  "steady_state_heap_grows": '"$HEAP_GROWS"','
  echo '  "engine_code_lines": '"$ENGINE_CODE_LINES"','
  echo '  "bench_code_lines": '"$BENCH_CODE_LINES"','
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
