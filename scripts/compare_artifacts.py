#!/usr/bin/env python3
"""Diff two hmps-metrics-v* run artifacts and print per-metric deltas.

Runs are matched by label (the stable row name each bench assigns), and
every numeric leaf under each run's "results" and "sync_stats" blocks, the
simulated machine counters (machine.udn, .vlink, .coherence, .noc; not
machine.engine, which counts host-side event-loop work) and the service
sojourn percentiles when present is compared:

    scripts/compare_artifacts.py old.json new.json
    scripts/compare_artifacts.py old.json new.json --fail-over 5

With --fail-over PCT the exit status is 1 when any compared metric moved
by more than PCT percent (relative to the old value; a metric moving away
from exactly 0 always trips the gate), which makes the script a cheap
perf-drift tripwire between PRs. Metrics whose old and new values are both
0 are skipped, and so are metrics present in only one of the two artifacts
(v1 artifacts have no machine.noc block).
"""
import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    schema = doc.get("schema", "")
    if not schema.startswith("hmps-metrics-v"):
        sys.exit(f"{path}: not an hmps-metrics artifact (schema={schema!r})")
    return doc


def numeric_leaves(obj, prefix=""):
    """Flattens nested dicts to {dotted.path: number}, skipping non-numeric
    leaves (labels, policy names) and booleans."""
    out = {}
    if isinstance(obj, dict):
        for k, v in obj.items():
            out.update(numeric_leaves(v, f"{prefix}{k}." if prefix or k else k))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix.rstrip(".")] = float(obj)
    return out


# Simulated machine blocks: moved only by a change to simulated behavior.
MACHINE_BLOCKS = ("udn", "vlink", "coherence", "noc")


def run_metrics(run):
    m = numeric_leaves(run.get("results", {}), "results.")
    m.update(numeric_leaves(run.get("sync_stats", {}), "sync_stats."))
    machine = run.get("machine", {})
    for block in MACHINE_BLOCKS:
        m.update(numeric_leaves(machine.get(block, {}), f"machine.{block}."))
    soj = run.get("service", {}).get("sojourn")
    if soj:
        m.update(numeric_leaves(soj, "service.sojourn."))
    return m


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("old", help="baseline artifact (--json output)")
    ap.add_argument("new", help="candidate artifact to compare against it")
    ap.add_argument(
        "--fail-over",
        type=float,
        metavar="PCT",
        help="exit 1 if any metric's |delta| exceeds PCT percent of old",
    )
    ap.add_argument(
        "--prefix",
        default="",
        help="only compare metrics whose dotted path starts with this",
    )
    args = ap.parse_args()

    old_doc, new_doc = load(args.old), load(args.new)
    old_runs = {r.get("label", "?"): r for r in old_doc.get("runs", [])}
    new_runs = {r.get("label", "?"): r for r in new_doc.get("runs", [])}

    only_old = sorted(set(old_runs) - set(new_runs))
    only_new = sorted(set(new_runs) - set(old_runs))
    for lbl in only_old:
        print(f"~ run {lbl!r} only in {args.old}")
    for lbl in only_new:
        print(f"~ run {lbl!r} only in {args.new}")

    worst = 0.0
    worst_what = ""
    compared = 0
    for lbl in (l for l in old_runs if l in new_runs):
        om = run_metrics(old_runs[lbl])
        nm = run_metrics(new_runs[lbl])
        keys = [k for k in om if k in nm and k.startswith(args.prefix)]
        for k in keys:
            o, n = om[k], nm[k]
            if o == 0 and n == 0:
                continue
            compared += 1
            if o != 0:
                pct = (n - o) / abs(o) * 100.0
                pct_s = f"{pct:+8.2f}%"
            else:
                pct = float("inf")
                pct_s = "     new"
            if abs(pct) > abs(worst):
                worst, worst_what = pct, f"{lbl}:{k}"
            marker = " "
            if args.fail_over is not None and abs(pct) > args.fail_over:
                marker = "!"
            if n != o:
                print(f"{marker} {lbl:<24} {k:<28} {o:>14.4g} -> "
                      f"{n:>14.4g}  {pct_s}")

    if compared == 0:
        print("no comparable metrics (no matching run labels?)")
        return 1
    print(f"compared {compared} metrics over "
          f"{len(set(old_runs) & set(new_runs))} matched runs; "
          f"largest move {worst:+.2f}% ({worst_what or 'none'})")
    if args.fail_over is not None and abs(worst) > args.fail_over:
        print(f"FAIL: exceeds --fail-over {args.fail_over}%")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
