#!/usr/bin/env python3
"""A/B judge for the repo benchmark (benchmark/README.md, "Comparing two
commits").

usage: compare.py PARENT_DIR CHANGE_DIR [--claim WORKLOAD:METRIC]

Each directory holds the untraced results files that `run.sh --out DIR`
wrote for one commit, from runs alternated with the other commit's, so the
i-th run of a workload on each side forms a pair; at least ten pairs per
workload are required. Bounds and directions come from the BENCHMARK.json
beside this script's directory. For every workload and
end-to-end metric it prints each side's median and quartiles and a verdict:

  identical   simulated metric, equal for every seed on both sides
  CHANGED     simulated metric or sim_digest differs for some seed: a host
              side change must not move the model
  ok          host metric: the change's median is no worse than the parent's
              by more than the metric's bound in BENCHMARK.json
  REGRESSED   host metric: worse than the parent by more than the bound
  unresolved  the parent's own quartile spread exceeds the bound and not
              every change run beats every parent run

--claim applies the gain rule: the change must win at least 9 of every 10
pairs (ties count for neither) and the medians must differ by more than the
parent's quartile spread. Exits 1 on CHANGED, REGRESSED or an unmet claim,
2 on bad input.
"""
import argparse
import glob
import json
import os
import statistics
import sys

# End-to-end metrics computed from the simulation alone: deterministic for a
# given seed, so they are compared exactly, not against a bound.
SIMULATED = {"sim_mops", "p99_cycles"}
MIN_PAIRS = 10
SPEC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                    "BENCHMARK.json")


def load(directory):
    runs = {}
    for path in glob.glob(os.path.join(directory, "*.json")):
        try:
            with open(path) as f:
                r = json.load(f)
        except (OSError, ValueError):
            continue
        if not isinstance(r, dict) or "sim_digest" not in r or r.get("trace"):
            continue
        r["_mtime"] = os.path.getmtime(path)
        runs.setdefault(r["workload"], []).append(r)
    for rs in runs.values():
        rs.sort(key=lambda r: r["_mtime"])
    return runs


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def worse_by(parent, change, better):
    """Relative amount by which `change` is worse than `parent`."""
    if parent == 0:
        return 0.0
    d = (change - parent) / abs(parent)
    return d if better == "lower" else -d


def beats(a, b, better):
    return a < b if better == "lower" else a > b


def simulated_view(r):
    return (r["sim_digest"], r["scale"],
            json.dumps(r["simulated"], sort_keys=True))


def main():
    ap = argparse.ArgumentParser(description="A/B judge for the benchmark")
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--claim",
                    help="WORKLOAD:METRIC the change claims to improve")
    a = ap.parse_args()
    with open(SPEC) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = load(a.parent), load(a.change)

    bad = False
    print(f"{'workload':<14} {'metric':<13} {'parent med [q1, q3]':>32} "
          f"{'change med [q1, q3]':>32} {'delta':>8}  verdict")
    for w in sorted(set(parent) | set(change)):
        ps, cs = parent.get(w, []), change.get(w, [])
        n = min(len(ps), len(cs))
        if n < MIN_PAIRS:
            print(f"compare: {w}: {n} pairs, need {MIN_PAIRS}",
                  file=sys.stderr)
            sys.exit(2)
        ps, cs = ps[:n], cs[:n]

        # Simulated results: identical for every seed, on both sides.
        by_seed = {}
        for r in ps + cs:
            by_seed.setdefault(r["seed"], set()).add(simulated_view(r))
        sim_changed = any(len(v) > 1 for v in by_seed.values())

        for name, m in metrics.items():
            pv = [r["metrics"][name]["value"] for r in ps]
            cv = [r["metrics"][name]["value"] for r in cs]
            pq, cq = quartiles(pv), quartiles(cv)
            delta = -worse_by(pq[1], cq[1], m["better"])
            if name in SIMULATED:
                verdict = "CHANGED" if sim_changed else "identical"
                bad |= sim_changed
            else:
                spread = (pq[2] - pq[0]) / pq[1] if pq[1] else 0.0
                dominates = all(beats(c, p, m["better"])
                                for c in cv for p in pv)
                if spread > m["bound"] and not dominates:
                    verdict = "unresolved"
                elif worse_by(pq[1], cq[1], m["better"]) > m["bound"]:
                    verdict = "REGRESSED"
                    bad = True
                else:
                    verdict = "ok"
            fmt = lambda q: f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"
            print(f"{w:<14} {name:<13} {fmt(pq):>32} {fmt(cq):>32} "
                  f"{delta * 100:>+7.2f}%  {verdict}")
        if sim_changed:
            print(f"{w:<14} sim_digest or a simulated result differs between "
                  "runs of the same seed: CHANGED")

    if a.claim:
        w, _, name = a.claim.partition(":")
        if w not in parent or w not in change or name not in metrics:
            print(f"compare: no data for claim {a.claim}", file=sys.stderr)
            sys.exit(2)
        better = metrics[name]["better"]
        n = min(len(parent[w]), len(change[w]))
        pv = [r["metrics"][name]["value"] for r in parent[w][:n]]
        cv = [r["metrics"][name]["value"] for r in change[w][:n]]
        wins = sum(beats(c, p, better) for p, c in zip(pv, cv))
        pq, cq = quartiles(pv), quartiles(cv)
        met = wins * 10 >= 9 * n and abs(cq[1] - pq[1]) > pq[2] - pq[0]
        print(f"claim {a.claim}: change wins {wins} of {n} pairs; medians "
              f"{pq[1]:.5g} -> {cq[1]:.5g}, parent quartile spread "
              f"{pq[2] - pq[0]:.5g}: {'met' if met else 'NOT met'}")
        bad |= not met
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
