#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of one build agree within the bounds?

    python3 perfbench/steady.py [--rounds 5] [--seconds S] [--workloads a,b]

Run from the repository root. Each round runs every workload once for set A
and once for set B. Every run has a seed of its own (round r: base + 2r for
A, base + 2r + 1 for B). The sets alternate which goes first (A/B, B/A,
...) and the workload order rotates within each set, so slow host drift
lands on both sets alike instead of looking like a difference between
them. For every end-to-end metric of every workload it prints each
set's median and quartiles, the spread of all runs (quartile distance over
median) against the metric's bound, and how much worse set B's median is
than set A's against the bound. Exits 1 if any run was incorrect or any
check is over its bound (the spread of setup_s is reported, not checked).
Raw results go to .bench_run/steady.json.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def worse_by(a, b, better):
    """How much worse b is than a, as a share of a (negative: b is better)."""
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seed-base", type=int, default=100)
    args = parser.parse_args()
    workloads = args.workloads.split(",")

    results = {s: {w: [] for w in workloads} for s in "AB"}
    incorrect = 0
    for r in range(args.rounds):
        for set_name in ("AB" if r % 2 == 0 else "BA"):
            rotation = r % len(workloads)
            for w in workloads[rotation:] + workloads[:rotation]:
                result = run_once(w, args.seed_base + 2 * r + "AB".index(set_name), args.seconds)
                if result is None or not result["correct"]:
                    incorrect += 1
                    print(f"round {r} set {set_name} {w}: FAILED {result}", flush=True)
                    continue
                values = {k: v["value"] for k, v in result["metrics"].items()}
                results[set_name][w].append(values)
                print(f"round {r} set {set_name} {w}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in values.items()), flush=True)
    (ROOT / ".bench_run").mkdir(exist_ok=True)
    (ROOT / ".bench_run" / "steady.json").write_text(json.dumps(results, indent=1))

    over = 0
    print(f"\n{'workload':22s} {'metric':16s} {'A median [q1, q3]':>32s} {'B median [q1, q3]':>32s}"
          f" {'spread':>7s} {'B worse':>8s} {'bound':>6s}")
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [v[name] for v in results["A"][w]]
            b = [v[name] for v in results["B"][w]]
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            q1, q2, q3 = quartiles(a + b)
            spread = (q3 - q1) / q2 if q2 else 0.0
            worse = worse_by(qa[1], qb[1], m["better"])
            flag = ""
            if (spread > bound and name != "setup_s") or worse > bound:
                flag = "  OVER"
                over += 1
            elif spread > bound / 3 and name != "setup_s":
                flag = "  (spread > bound/3)"
            print(f"{w:22s} {name:16s} {qa[1]:12.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
                  f" {qb[1]:12.5g} [{qb[0]:.5g}, {qb[2]:.5g}] {spread:7.3f} {worse:8.3f}"
                  f" {bound:6.2f}{flag}")
    print(f"\n{incorrect} incorrect runs, {over} checks over their bound")
    return 1 if incorrect or over else 0


if __name__ == "__main__":
    sys.exit(main())
