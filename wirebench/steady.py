#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs each workload repeatedly with a different seed per run and reports,
for every end-to-end metric, the median, the quartiles and the spread
(q3 - q1) / median against the metric's bound from BENCHMARK.json. With
--sets 2 it repeats the whole series and also reports how far the second
median moved from the first, in the metric's worse direction.

Run from the repository root:

    python3 wirebench/steady.py --runs 10 --workloads watch,ingest,browse

A spread at or above the bound fails the check; one above a third of the
bound is flagged as loose. The exit code is 1 when any run fails or any
spread or drift reaches its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "wirebench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    out = json.loads(lines[-1])
    if not out["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output")
    steal = next((l.split("steal_frac=")[1] for l in lines if "steal_frac=" in l), "?")
    return {k: v["value"] for k, v in out["metrics"].items()}, out["failed"], steal


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--workloads", default=None, help="comma-separated; default: all")
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--raw", default=None, help="write every run's metrics to this JSON file")
    args = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]

    raw, ok = {}, True
    for w in workloads:
        sets = []
        for s in range(args.sets):
            vals = {m["name"]: [] for m in metrics}
            for r in range(args.runs):
                seed = args.seed0 + 1000 * s + r
                got, failed, steal = run_once(w, seed, seconds)
                if failed:
                    print(f"{w} seed {seed}: {failed} failed operations")
                for m in metrics:
                    vals[m["name"]].append(got[m["name"]])
                print(f"  {w} set {s + 1} run {r + 1}/{args.runs} seed {seed} steal {steal}: "
                      + " ".join(f"{k}={got[k]:.4g}" for k in vals), flush=True)
            sets.append(vals)
        raw[w] = sets
        print(f"\n{w}: {args.runs} runs x {args.sets} set(s), {seconds}s each")
        print(f"  {'metric':<16} {'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'bound':>6}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            for s, vals in enumerate(sets):
                med, q1, q3, sp = spread(vals[name])
                verdict = "ok"
                if name == "setup_s":
                    verdict = "ok (spread not gated)"
                elif sp >= bound:
                    verdict, ok = "TOO WIDE", False
                elif sp > bound / 3:
                    verdict = "loose (> bound/3)"
                print(f"  {name:<16} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} {sp:>7.3f} {bound:>6.2f}  set {s + 1}: {verdict}")
            if len(sets) > 1:
                m1, m2 = statistics.median(sets[0][name]), statistics.median(sets[-1][name])
                worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
                verdict = "ok" if worse <= bound else "DRIFT"
                ok = ok and worse <= bound
                print(f"  {name:<16} second median worse by {worse:+.3f} (bound {bound}): {verdict}")
    if args.raw:
        json.dump(raw, open(args.raw, "w"), indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
