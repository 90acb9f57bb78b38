#!/usr/bin/env bash
# Self-time profile of a command by function, from a SIGPROF program-counter
# sampler (scripts/pc_sampler.c) loaded with LD_PRELOAD.
#
# Usage: scripts/pc_profile.sh [--wall] CMD [ARGS...]
#   --wall  sample every 100 us of wall-clock time on a high-resolution
#           timer instead of every 1 ms of CPU time, which the kernel
#           rounds up to its scheduler tick: for short single-threaded runs
#
# The command runs unchanged, its output first; then the 25 functions with
# the most samples, one line each: its share of all samples, the sample
# count and the name addr2line gives the sampled address (the innermost
# function, inlined ones included). The
# sampler records only the interrupted PC and never walks the stack, so
# code running on simulated fibers' stacks is counted like any other code —
# call-graph profilers such as gprofng drop most of those samples
# (docs/ENGINE.md, appendix). Build the command with debug info
# (RelWithDebInfo) for useful names. Exits 1 if no sample could be named,
# otherwise with the command's status.
set -euo pipefail

clock="every 1 ms of CPU time"
wall=()
if [ "${1:-}" = "--wall" ]; then
  clock="every 100 us of wall-clock time"
  wall=(PC_SAMPLER_WALL=1)
  shift
fi
if [ $# -eq 0 ]; then
  sed -n '5,8p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cc -O2 -shared -fPIC -o "$tmp/pc_sampler.so" "$(dirname "$0")/pc_sampler.c"

status=0
env ${wall[@]+"${wall[@]}"} PC_SAMPLER_OUT="$tmp/samples" \
  LD_PRELOAD="$tmp/pc_sampler.so${LD_PRELOAD:+:$LD_PRELOAD}" "$@" || status=$?

# Every process the command ran wrote samples.<pid>: count, object, address.
cat "$tmp"/samples.* > "$tmp/all" 2>/dev/null || true
total=$(awk -F'\t' '{ s += $1 } END { print s + 0 }' "$tmp/all")

# Name each sampled address with one addr2line call per object.
: > "$tmp/named"
cut -f2 "$tmp/all" | sort -u | while IFS= read -r obj; do
  awk -F'\t' -v o="$obj" '$2 == o { print $1 }' "$tmp/all" > "$tmp/counts"
  if [ "$obj" != "?" ] && [ -r "$obj" ]; then
    awk -F'\t' -v o="$obj" '$2 == o { print $3 }' "$tmp/all" |
      addr2line -f -C -e "$obj" | awk 'NR % 2 == 1' > "$tmp/funcs"
  else
    awk '{ print "??" }' "$tmp/counts" > "$tmp/funcs"
  fi
  base="$(basename "$obj")"
  paste "$tmp/counts" "$tmp/funcs" |
    awk -F'\t' -v b="$base" '{ if ($2 == "??") $2 = "?? (" b ")"; print $1 "\t" $2 }' \
      OFS='\t' >> "$tmp/named"
done

named=$(awk -F'\t' '$2 !~ /^\?\?/ { s += $1 } END { print s + 0 }' "$tmp/named")
echo
echo "pc_profile: $total samples, $named named, $clock"
echo "  share   samples  function (self time)"
awk -F'\t' '{ c[$2] += $1 } END { for (f in c) print c[f] "\t" f }' \
  "$tmp/named" | sort -t$'\t' -k1,1nr | head -n 25 |
  awk -F'\t' -v t="$total" '{ printf "%6.1f%%  %8d  %s\n", 100 * $1 / t, $1, $2 }'

if [ "$named" -eq 0 ]; then
  echo "pc_profile: no sample could be named" >&2
  exit 1
fi
exit "$status"
