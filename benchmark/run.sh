#!/usr/bin/env bash
# Builds and runs the repo benchmark (benchmark/README.md).
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace 0|1 | --traced] [--out DIR]
#   benchmark/run.sh --smoke
#
# Builds build-bench/ (RelWithDebInfo, like CI and scripts/) from this
# directory's CMake project, then runs each selected workload (default: all
# four) in its own process. Each prints `workload metric value unit` lines,
# writes a results JSON under --out (default build-bench/out) and ends with
# one JSON summary line. --smoke runs benchmark/smoke.py instead: every
# workload at about 1/20 size, twice, checking the output schema, the output
# checks and that sim_digest repeats.
set -euo pipefail

cd "$(dirname "$0")/.."
if [ ! -f src/CMakeLists.txt ]; then
  echo "run.sh: simulator sources (src/) not found beside benchmark/" >&2
  exit 1
fi

usage() {
  sed -n '4,7p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

workloads=()
args=()
out=build-bench/out
smoke=0
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) [ $# -ge 2 ] || usage; workloads+=("$2"); shift 2 ;;
    --seed|--seconds|--trace)
      [ $# -ge 2 ] || usage; args+=("$1" "$2"); shift 2 ;;
    --traced) args+=(--trace 1); shift ;;
    --out) [ $# -ge 2 ] || usage; out="$2"; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) usage ;;
  esac
done

if [ ! -f build-bench/CMakeCache.txt ]; then
  cmake -S benchmark -B build-bench -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
fi
cmake --build build-bench --target hmps_bench -j 2 >&2

if [ "$smoke" = 1 ]; then
  exec python3 benchmark/smoke.py --bin build-bench/hmps_bench \
    --spec BENCHMARK.json --out "$out/smoke"
fi

if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(paper_tile36 svc_tile36 mesh256_noc explore_fuzz)
fi
for w in "${workloads[@]}"; do
  build-bench/hmps_bench --workload "$w" ${args[@]+"${args[@]}"} --out "$out"
done
