#!/usr/bin/env python3
"""Steadiness test: two sets of runs of the same code, compared.

For every workload, runs ``--runs`` untraced runs per set, each with its
own seed (set ``k`` uses seeds ``100·k + 1 …``), and prints for each
end-to-end metric the median, the quartiles, the spread (interquartile
distance ÷ median) and whether

* the spread stays within the metric's bound from ``BENCHMARK.json``
  (``setup_s`` is exempt: only its median is compared), and
* the second set's median is not worse than the first's by more than
  the bound;

plus whether the share of failed operations is identical in both sets.
Exits 1 if any check fails.

    python3 perfbench/steady.py --runs 10 --sets 2
    python3 perfbench/steady.py --workloads sharded-process-5k --runs 5 --sets 1
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload: str, seed: int, seconds: int) -> dict:
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    completed = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                               timeout=600)
    elapsed = time.monotonic() - started
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {completed.returncode}:\n"
                         f"{completed.stderr[-2000:]}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    result["elapsed"] = elapsed
    result["log"] = completed.stderr[-4000:]
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    command = spec["command"]
    metrics = {metric["name"]: metric for metric in spec["end_to_end"]}
    ok = True
    report = {}
    for workload in args.workloads.split(","):
        sets = []
        for set_index in range(args.sets):
            runs = []
            for run_index in range(args.runs):
                seed = 100 * set_index + run_index + 1
                result = run_once(command, workload, seed, args.seconds)
                print(f"{workload} set {set_index} seed {seed}: "
                      f"{result['elapsed']:.1f} s, correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']}",
                      file=sys.stderr, flush=True)
                ok &= bool(result["correct"])
                runs.append(result)
            sets.append(runs)
        report[workload] = sets
        print(f"\n== {workload}: {args.sets} set(s) of {args.runs} runs, "
              f"{args.seconds} s each")
        share_sets = [sorted({r["failed"] / r["attempted"] for r in runs}) for runs in sets]
        same_share = all(len(s) == 1 for s in share_sets) and len(
            {s[0] for s in share_sets}) == 1
        ok &= same_share
        print(f"failed share per set: {share_sets} -> "
              f"{'identical' if same_share else 'DIFFERS'}")
        for name, metric in metrics.items():
            bound = metric["bound"]
            lower = metric["better"] == "lower"
            medians = []
            for set_index, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                median, q1, q3, spread = summarize(values)
                medians.append(median)
                within = name == "setup_s" or spread <= bound
                ok &= within
                print(f"{name:>14} set {set_index}: median {median:.6g} "
                      f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} "
                      f"(bound {bound}, third {bound / 3:.4f}) "
                      f"{'ok' if within else 'TOO WIDE'}"
                      f"{'' if name == 'setup_s' or spread <= bound / 3 else ' (above a third)'}")
            for later in medians[1:]:
                change = (later - medians[0]) / medians[0] if medians[0] else 0.0
                worse = change if lower else -change
                agree = worse <= bound
                ok &= agree
                print(f"{name:>14} second median vs first: {change:+.4f} "
                      f"{'agrees' if agree else 'WORSE THAN BOUND'}")
    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"steady-{int(time.time())}.json").write_text(json.dumps(report, indent=1))
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
