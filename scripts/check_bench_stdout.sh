#!/usr/bin/env bash
# Runs every figure bench pinned in tests/data/bench_stdout/ at its defaults
# and diffs its stdout against the pinned copy. sec55_discussion's native
# host table (host timing, not simulation) is cut before the comparison.
#
# Usage: scripts/check_bench_stdout.sh [--update] [BUILD_DIR]
#   --update  rewrite the pinned copies from this build instead of diffing
#             (for a change that moves a bench's output on purpose; say why
#             in CHANGES.md)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD=build
UPDATE=0
for a in "$@"; do
  if [ "$a" = "--update" ]; then UPDATE=1; else BUILD="$a"; fi
done

OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT
status=0
for ref in tests/data/bench_stdout/*.txt; do
  bench="$(basename "$ref" .txt)"
  "$BUILD/bench/$bench" 2>/dev/null | sed '/native x86 spot check/,$d' > "$OUT"
  if [ "$UPDATE" = 1 ]; then
    cp "$OUT" "$ref"
  elif diff -u "$ref" "$OUT"; then
    echo "ok $bench"
  else
    echo "MOVED $bench"
    status=1
  fi
done
exit "$status"
