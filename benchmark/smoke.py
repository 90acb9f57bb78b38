#!/usr/bin/env python3
"""Smoke check of the repo benchmark (benchmark/README.md).

Runs every workload at about 1/20 size: untraced twice and traced once.
Checks that each invocation exits 0 and ends with the JSON summary line
(exactly the keys correct, attempted, failed and metrics), that the summary
names exactly the metrics BENCHMARK.json lists (end-to-end untraced,
per-layer traced) with their units, that every metric also has a
`workload metric value unit` line, that no operation failed, and that
sim_digest is identical across all three invocations of a workload
(tracing must not change the simulation).

usage: smoke.py --bin HMPS_BENCH --spec BENCHMARK.json --out DIR
"""
import argparse
import json
import math
import subprocess
import sys
import time

# Work divisor per workload. The open-loop workload keeps a quarter of its
# window: at 1/20 its low-load p99 rests on too few samples to be monotone.
SCALE = {"paper_tile36": 20, "svc_tile36": 4, "mesh256_noc": 20,
         "explore_fuzz": 20}


def run(binary, workload, trace, out, spec):
    cmd = [binary, "--workload", workload, "--seconds", "0",
           "--scale", str(SCALE[workload]), "--trace", str(trace),
           "--out", out]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    where = f"{workload} (trace {trace})"
    if p.returncode != 0:
        sys.exit(f"smoke: {where} exited {p.returncode}:\n{p.stderr}")
    lines = p.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    if sorted(summary) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"smoke: {where}: summary keys {sorted(summary)}")
    if summary["correct"] is not True or summary["failed"] != 0:
        sys.exit(f"smoke: {where}: failed operations:\n{p.stderr}")
    if not isinstance(summary["attempted"], int) or summary["attempted"] < 1:
        sys.exit(f"smoke: {where}: attempted {summary['attempted']}")
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = summary["metrics"]
    if set(got) != set(want):
        sys.exit(f"smoke: {where}: metrics differ from BENCHMARK.json: "
                 f"missing {sorted(set(want) - set(got))}, "
                 f"extra {sorted(set(got) - set(want))}")
    printed = {l.split()[1]: l.split()[3] for l in lines[:-1]
               if len(l.split()) == 4 and l.split()[0] == workload}
    for name, unit in want.items():
        v = got[name]
        if v["unit"] != unit or not isinstance(v["value"], (int, float)) \
                or not math.isfinite(v["value"]):
            sys.exit(f"smoke: {where}: bad metric {name}: {v}")
        if printed.get(name) != unit:
            sys.exit(f"smoke: {where}: no `{workload} {name} value {unit}` "
                     "line")
    digest = [l.split()[2] for l in lines if l.startswith(
        f"{workload} sim_digest ")]
    if len(digest) != 1:
        sys.exit(f"smoke: {where}: no sim_digest line")
    return digest[0]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bin", required=True)
    ap.add_argument("--spec", required=True)
    ap.add_argument("--out", required=True)
    a = ap.parse_args()
    with open(a.spec) as f:
        spec = json.load(f)
    t0 = time.monotonic()
    for w in spec_workloads(spec):
        digests = [run(a.bin, w, 0, a.out, spec), run(a.bin, w, 0, a.out, spec),
                   run(a.bin, w, 1, a.out, spec)]
        if len(set(digests)) != 1:
            sys.exit(f"smoke: {w}: sim_digest not stable: {digests}")
        print(f"smoke: {w} ok, sim_digest {digests[0]}")
    print(f"smoke: all workloads ok in {time.monotonic() - t0:.1f} s")


def spec_workloads(spec):
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(SCALE):
        sys.exit(f"smoke: BENCHMARK.json workloads {names} != {sorted(SCALE)}")
    return names


if __name__ == "__main__":
    main()
