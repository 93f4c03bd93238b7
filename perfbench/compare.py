"""Two interleaved sets of benchmark runs of the same code.

Run from the repository root:

    python3 perfbench/compare.py --runs 10 --trace-runs 3
    python3 perfbench/compare.py --workloads drift --runs 5

Every run measures for BENCHMARK.json's ``run_seconds``. Set A uses
seeds 1..runs and set B seeds 1001..1000+runs; the runs alternate
between the sets (A first on even steps, B first on odd ones), so drift
in the machine's load falls on both. For every end-to-end metric of
every workload it prints each set's median and quartiles, the spread
(quartile distance over median), and whether both spreads and the shift
of B's median against A's, either way, stay within the bound in
BENCHMARK.json. ``--trace-runs k`` adds a traced run of each workload
right after each of the first k steps, and prints its tracing overhead
against the mean of that step's two untraced runs, which ran just
before it.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-3000:])
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - start
    print(f"[compare] {workload} seed {seed} trace {trace}: wall {result['wall_s']:.1f} s, "
          f"correct={result['correct']} failed={result['failed']}/{result['attempted']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items() if not trace or k.startswith("traced.")),
          file=sys.stderr, flush=True)
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10, help="runs per set (at least 2)")
    ap.add_argument("--trace-runs", type=int, default=0, help="steps followed by a traced run")
    args = ap.parse_args(argv)
    seconds = bench["run_seconds"]

    results = {w: {"A": [], "B": [], "overhead": []} for w in args.workloads}
    for i in range(args.runs):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for w in args.workloads:
            step = {side: run_once(w, (1 if side == "A" else 1001) + i, seconds, 0) for side in order}
            for side, res in step.items():
                results[w][side].append(res)
            if i < args.trace_runs:
                traced = run_once(w, 2001 + i, seconds, 1)
                results[w]["overhead"].append((traced, {
                    name: traced["metrics"][f"traced.{name}"]["value"]
                    / statistics.fmean(r["metrics"][name]["value"] for r in step.values()) - 1
                    for name in e2e
                }))

    ok = True
    for w in args.workloads:
        sets = results[w]
        print(f"\n== {w}")
        for side in ("A", "B"):
            runs = sets[side]
            shares = {r["failed"] / r["attempted"] for r in runs}
            correct = all(r["correct"] for r in runs)
            ok &= correct
            print(f"set {side}: {len(runs)} runs, all correct={correct}, failed shares={sorted(shares)}")
        print(f"{'metric':<22}{'A q1/med/q3':>36}{'spread':>8}{'B q1/med/q3':>36}{'spread':>8}{'shift':>8}  verdict")
        for name, spec in e2e.items():
            qa = quartiles([r["metrics"][name]["value"] for r in sets["A"]])
            qb = quartiles([r["metrics"][name]["value"] for r in sets["B"]])
            spread = max((qa[2] - qa[0]) / qa[1], (qb[2] - qb[0]) / qb[1])
            worse = (qb[1] - qa[1]) / qa[1] * (1 if spec["better"] == "lower" else -1)
            bound = spec["bound"]
            agree = spread <= bound and abs(worse) <= bound
            ok &= agree
            verdict = "agree" if agree else "DISAGREE"
            if agree and spread > bound / 3:
                verdict += " (spread above a third of the bound)"
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)  # noqa: E731
            print(f"{name:<22}{fmt(qa):>36}{(qa[2] - qa[0]) / qa[1]:>8.3f}{fmt(qb):>36}"
                  f"{(qb[2] - qb[0]) / qb[1]:>8.3f}{worse:>+8.3f}  {verdict} (bound {bound})")
        for traced, overhead in sets["overhead"]:
            ok &= traced["correct"]
            print(f"traced run: correct={traced['correct']}; overhead against the step's untraced runs "
                  "(positive: traced run higher): " + ", ".join(f"{k} {v:+.3f}" for k, v in overhead.items()))
            print("  " + json.dumps({k: v["value"] for k, v in traced["metrics"].items()}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
