#!/usr/bin/env python3
"""A/A steadiness check for the LedgerView benchmark.

Runs every workload on several seeds with identical code and prints, per
end-to-end metric, the median, the quartiles and the spread (distance
between the first and third quartile as a share of the median, as
`statistics.quantiles(values, n=4)` gives them). Gated metrics are
compared with a third of their bound in BENCHMARK.json.

It then checks that every virtual-time (`sim_*`) metric is bit-identical
when one seed is run twice, and differs under a second, held-out seed.

Usage, from the root of the repository:

    python3 perfbench/aa.py [--workloads views,audit,ingest,tpcc]
        [--first-seed 1] [--seconds 10]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = 10
HELD_OUT_SEED = 7919


def run(workload, seed, seconds):
    """One untraced run; returns (result line, full metrics record)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, ".perfbench_out", f"{workload}-seed{seed}-trace0.json")
    with open(path) as f:
        return result, json.load(f)


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="views,audit,ingest,tpcc")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + SEEDS))
    steady = True
    summary = {}
    for workload in args.workloads.split(","):
        records = []
        for seed in seeds:
            result, full = run(workload, seed, seconds)
            if not result["correct"] or result["failed"]:
                steady = False
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
            records.append(full["end_to_end"])
        print(f"\n{workload}: {len(seeds)} seeds x {seconds:g} s")
        print(f"  {'metric':<22}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}  verdict")
        summary[workload] = {}
        for name in sorted(records[0]):
            values = [r[name] for r in records]
            med, q1, q3, s = spread(values)
            verdict = ""
            if name in bounds:
                ok = s < bounds[name] / 3
                steady &= ok
                verdict = f"{'ok' if ok else 'TOO WIDE'} (< {bounds[name] / 3:.3f})"
            print(f"  {name:<22}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}{s:>9.4f}  {verdict}")
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": s}

        sim = sorted(n for n in records[0] if n.startswith("sim_"))
        if sim:
            _, a = run(workload, seeds[0], 1)
            _, b = run(workload, seeds[0], 1)
            _, c = run(workload, HELD_OUT_SEED, 1)
            same = all(a["end_to_end"][n] == b["end_to_end"][n] for n in sim)
            differs = all(a["end_to_end"][n] != c["end_to_end"][n] for n in sim)
            steady &= same and differs
            for n in sim:
                print(f"  {n}: seed {seeds[0]} {a['end_to_end'][n]!r} / {b['end_to_end'][n]!r}, "
                      f"held-out seed {HELD_OUT_SEED} {c['end_to_end'][n]!r}")
            print(f"  sim_* bit-identical under one seed: {same}; differ under the held-out seed: {differs}")
    out = os.path.join(ROOT, ".perfbench_out", "aa-summary.json")
    with open(out, "w") as f:
        json.dump(summary, f, indent=2)
    print(f"\nsummary written to {out}; steady: {steady}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
