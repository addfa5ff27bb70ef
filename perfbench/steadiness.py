"""Steadiness report: run each workload k times and summarise each metric.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1] [--workload NAME ...]

Run from the root of a checkout. Each run is ``perfbench/run.py`` with its
own seed (``first-seed``, ``first-seed + 1``, ...). For every workload and
metric this prints the median, the first and third quartiles (Python's
``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, next to the metric's bound in ``BENCHMARK.json`` and a third
of it. It also prints each workload's share of failed operations. The
raw results go to ``perfbench/out/steadiness-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"{' '.join(cmd)}: a check failed\n{done.stderr}", file=sys.stderr)
    return result


def summarise(results: list[dict], bounds: dict) -> list[str]:
    lines = []
    shares = {r["failed"] / r["attempted"] for r in results}
    lines.append(f"  correct in {sum(r['correct'] for r in results)}/{len(results)} runs; "
                 f"failed share(s): {sorted(shares)}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        median = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = median
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = f"bound {bound:.2f} (third {bound / 3:.3f})" + (
                "" if spread < bound / 3 else "  <-- above a third of the bound")
        lines.append(f"  {name:38s} median {median:12.4f} {unit:6s} q1 {q1:12.4f} "
                     f"q3 {q3:12.4f} spread {spread:6.3f}  {verdict}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workload or [w["name"] for w in bench["workloads"]]

    report = {}
    for name in names:
        results = []
        for i in range(args.runs):
            t0 = time.monotonic()
            results.append(run_once(name, args.first_seed + i, seconds))
            print(f"{name} seed {args.first_seed + i}: {time.monotonic() - t0:.1f} s",
                  file=sys.stderr)
        report[name] = results
        print(f"{name} ({args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, --seconds {seconds})")
        print("\n".join(summarise(results, bounds)), flush=True)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"steadiness-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"raw results: {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
