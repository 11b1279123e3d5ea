#!/usr/bin/env python3
"""Runs each workload N times with seeds 1..N and prints, per end-to-end
metric, the median, the quartiles, the min-max range and the spread
(quartile distance over the median) against the bound in BENCHMARK.json.

    python3 perfbench/steady.py                  # every workload, 10 seeds
    python3 perfbench/steady.py -n 5 -w reorg-mem
    python3 perfbench/steady.py --trace 1 -n 3   # per-layer metrics
    python3 perfbench/steady.py --save a.json    # first set of runs
    python3 perfbench/steady.py --against a.json # second set, compared

Run from the root of the tree. The bounds in BENCHMARK.json are set from
this output: each spread should stay below a third of its bound. setup_s
is exempt from the spread test (set-up is repeated and its median taken
in every run, and a later change is judged by that median moving, not
by its spread); its median is still compared with --against. With
--against, a median worse than the saved one by more than its bound, or
a different share of failed operations, is flagged. Exits 1 if anything
is flagged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds, trace):
    cmd = ["bash", os.path.join("perfbench", "run.sh"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    r = json.loads(lines[-1])
    # Metrics printed with every run but left out of the result.
    r["printed"] = {}
    r["giveups"] = 0
    for line in lines:
        if "scans abandoned and reissued" in line:
            r["giveups"] = int(line.split()[-1])
        if "(unbounded, not in the result)" in line:
            name, value, unit = line.split()[:3]
            r["printed"][name] = {"value": float(value), "unit": unit}
    if r["failed"] or not r["correct"]:
        for line in (out.stderr + out.stdout).splitlines():
            if line.startswith("perfbench:") or "WRONG" in line:
                print(f"  {workload} seed={seed}: {line.strip()}", file=sys.stderr)
    return r


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("-n", "--runs", type=int, default=10)
    ap.add_argument("-w", "--workload", action="append",
                    help="workload to run (repeatable; default all)")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--save", help="write each workload's medians and failed share to this file")
    ap.add_argument("--against", help="compare medians and failed shares with a file from --save")
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"] + spec["per_layer"]}
    before = {}
    if args.against:
        with open(args.against) as f:
            before = json.load(f)
    saved = {}
    names = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    for w in names:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            r = run_once(w, seed, args.seconds, args.trace)
            runs.append(r)
            print(f"{w} seed={seed} correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']} scans-reissued={r['giveups']}", file=sys.stderr)
        share = sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
        shares = {r["failed"] / r["attempted"] for r in runs}
        wrong = sum(not r["correct"] for r in runs)
        print(f"\n== {w}: {len(runs)} runs, {wrong} incorrect, failed share(s) {sorted(shares)}")
        prev = before.get(w)
        if prev is not None and prev["failed_share"] != share:
            print(f"  <-- failed share {share} differs from the saved {prev['failed_share']}")
            ok = False
        saved[w] = {"failed_share": share, "medians": {}}
        print(f"{'metric':26} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12}"
              f" {'spread':>8} {'bound':>6}")
        printed = list(runs[0]["printed"])
        for name in list(runs[0]["metrics"]) + printed:
            kind = "printed" if name in printed else "metrics"
            vals = [r[kind][name]["value"] for r in runs]
            unit = runs[0][kind][name]["unit"]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name) if args.trace == 0 and kind == "metrics" else None
            saved[w]["medians"][name] = med
            flag = "  (printed, not in the result)" if kind == "printed" else ""
            if bound is not None and name != "setup_s" and not spread < bound / 3:
                flag = "  <-- over a third of its bound"
                ok = False
            old = prev["medians"].get(name) if prev else None
            if old and bound is not None:
                worse = (med - old) / old if lower[name] else (old - med) / old
                flag += f"  vs saved {old:.6g} ({worse:+.3f})"
                if worse > bound:
                    flag += "  <-- worse than the saved median by more than its bound"
                    ok = False
            print(f"{name:26} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(vals):12.6g}"
                  f" {max(vals):12.6g} {spread:8.4f} {bound if bound is not None else '':>6}"
                  f" {unit}{flag}")
        if wrong:
            ok = False
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=2)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
