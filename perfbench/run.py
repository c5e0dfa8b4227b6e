#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper-adaptive-20k --seed 1 \\
        --seconds 24 --trace 0

``--trace 0`` runs the user-visible path and prints the end-to-end
metrics; ``--trace 1`` runs one round untraced, then one round through
the traced path, prints the per-layer metrics (with
``bench.trace_overhead``, the traced phase's extra wall time as a share
of the untraced one) and writes the spans to
``perfbench/out/spans-<workload>-seed<seed>.json``.
End-to-end times are in reference seconds (``speed.py``): wall time
scaled by the machine's speed, sampled all through the measured phase.
Per-job lines (raw and reference times) go to standard error; the last
line of standard output is the result object.  See README.md for what
each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5

END_TO_END = {
    "tuples_per_s": "tuples/s",
    "job_s": "s",
    "first_match_s": "s",
    "recall": "ratio",
    "precision": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "joins.approx_s": "s",
    "joins.exact_s": "s",
    "joins.catch_up_tuples": "count",
    "joins.candidate_scan_work": "count",
    "joins.candidates_per_probe": "count",
    "joins.verify_yield": "ratio",
    "joins.gram_vocabulary": "count",
    "core.transitions": "count",
    "core.assessments": "count",
    "core.exact_step_frac": "ratio",
    "core.weighted_cost": "units",
    "runtime.session.init_s": "s",
    "runtime.session.batches": "count",
    "jobs.build_s": "s",
    "runtime.sharding.plan_s": "s",
    "runtime.sharding.replication": "ratio",
    "runtime.sharding.merge_s": "s",
    "runtime.sharding.duplicates": "count",
    "runtime.sharding.skew": "ratio",
    "runtime.handoff.publish_s": "s",
    "runtime.handoff.task_bytes": "bytes",
    "runtime.parallel.run_s": "s",
    "runtime.parallel.shard_max_s": "s",
    "runtime.parallel.busy_frac": "ratio",
    "runtime.parallel.overhead_s": "s",
    "server.post_s": "s",
    "server.queue_wait_s": "s",
    "server.first_line_s": "s",
    "server.stream_s": "s",
    "server.request_bytes": "bytes",
    "server.stream_bytes": "bytes",
    "server.store_bytes": "bytes",
    "server.store_amplification": "ratio",
    "server.shards_completed": "count",
    "bench.calibration_s": "s",
    "bench.trace_overhead": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def locate_source() -> None:
    """Put the checkout's ``src`` on the import path, or exit 2."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))


def peak_rss_mb() -> float:
    """Own peak RSS plus the largest peak of any process started and reaped."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts to
    track shared-memory segments (the process backend's handoff).

    It would otherwise outlive the run: it only exits once it reads
    end-of-file on its pipe, after this process is gone.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def check_jobs(jobs, cases) -> tuple:
    """Per-job checks (failures count as failed jobs) and run-level checks."""
    from oracle import GramCache, check_job

    by_name = {case.name: case for case in cases}
    grams = GramCache()
    failed = set()
    run_problems = []
    for index, job in enumerate(jobs):
        case = by_name[job.case]
        problems = [job.error] if job.error else check_job(
            job.output, case.left_values, case.right_values, case.identical, grams
        )
        if job.result_size is not None and job.result_size != len(job.output):
            problems.append(
                f"{len(job.output)} NDJSON lines but result_size {job.result_size}"
            )
        if problems:
            failed.add(index)
            for problem in problems[:3]:
                print(f"FAILED {job.case}#{job.round}: {problem}", file=sys.stderr)
    # A job repeated within a run yields the identical pair sequence.
    reference = {}
    for index, job in enumerate(jobs):
        if index in failed:
            continue
        pairs = [(left, right) for left, right, _ in job.output]
        first = reference.setdefault(job.case, pairs)
        if pairs != first:
            run_problems.append(f"{job.case}: round {job.round} differs from its repeat")
    return failed, run_problems


def end_to_end(workload, jobs, failed, wall, setup_times, calibration) -> dict:
    by_name = {case.name: case for case in workload.cases}
    measured = [job for job in jobs if job.round >= 0]
    good = [job for index, job in enumerate(jobs) if job.round >= 0 and index not in failed]
    truth_total = found = reported = 0
    for job in good:
        truth = by_name[job.case].truth
        pairs = {(left, right) for left, right, _ in job.output}
        truth_total += len(truth)
        found += len(pairs.intersection(truth))
        reported += len(pairs)
    times = [job.seconds for job in good] or [float("nan")]
    firsts = [job.first_seconds for job in good] or [float("nan")]
    tuples = sum(by_name[job.case].tuples for job in measured)
    print(f"calibration_s {statistics.median(calibration):.6f}", file=sys.stderr)
    print("setup_s " + " ".join(f"{t:.4f}" for t in setup_times), file=sys.stderr)
    return {
        "tuples_per_s": tuples / wall,
        "job_s": statistics.median(times),
        "first_match_s": statistics.median(firsts),
        "recall": found / truth_total if truth_total else 0.0,
        "precision": found / reported if reported else 0.0,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(workload, tracer, traced_jobs, calibration, overhead) -> dict:
    """Layer metrics of the traced pass; ``traced_jobs`` counts its good jobs."""
    layers = workload.layers
    count = max(1, traced_jobs)
    spans = tracer.self_times()

    def span_total(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1] / count

    def mean(name: str) -> float:
        return layers.get(name) / count

    def ratio(numerator: str, denominator: str) -> float:
        base = layers.get(denominator)
        return layers.get(numerator) / base if base else 0.0

    request_bytes = mean("request_bytes")
    return {
        "joins.approx_s": span_total("joins.approx_batch"),
        "joins.exact_s": span_total("joins.exact_batch"),
        "joins.catch_up_tuples": mean("catch_up_tuples"),
        "joins.candidate_scan_work": mean("candidate_scan_work"),
        "joins.candidates_per_probe": ratio("candidate_set_size", "approx_probes"),
        "joins.verify_yield": ratio("approx_matches", "candidate_set_size"),
        "joins.gram_vocabulary": layers.maxima.get("gram_vocabulary", 0.0),
        "core.transitions": mean("transitions"),
        "core.assessments": mean("assessments"),
        "core.exact_step_frac": ratio("exact_steps", "steps"),
        "core.weighted_cost": mean("weighted_cost"),
        "runtime.session.init_s": span_total("runtime.session.init"),
        "runtime.session.batches": mean("batches"),
        "jobs.build_s": span_total("jobs.build"),
        "runtime.sharding.plan_s": span_total("runtime.sharding.plan"),
        "runtime.sharding.replication": ratio("replicated", "inputs"),
        "runtime.sharding.merge_s": span_total("runtime.sharding.merge"),
        "runtime.sharding.duplicates": mean("duplicates"),
        "runtime.sharding.skew": mean("skew"),
        "runtime.handoff.publish_s": span_total("runtime.handoff.publish"),
        "runtime.handoff.task_bytes": mean("task_bytes"),
        "runtime.parallel.run_s": mean("run_s"),
        "runtime.parallel.shard_max_s": mean("shard_max_s"),
        "runtime.parallel.busy_frac": ratio("shard_sum_s", "worker_seconds"),
        "runtime.parallel.overhead_s": mean("overhead_s"),
        "server.post_s": mean("post_s"),
        "server.queue_wait_s": mean("queue_wait_s"),
        "server.first_line_s": mean("first_line_s"),
        "server.stream_s": mean("stream_s"),
        "server.request_bytes": request_bytes,
        "server.stream_bytes": mean("stream_bytes"),
        "server.store_bytes": layers.get("store_bytes"),
        "server.store_amplification": (
            layers.get("store_bytes") / request_bytes if request_bytes else 0.0
        ),
        "server.shards_completed": layers.get("shards_completed"),
        "bench.calibration_s": statistics.median(calibration),
        "bench.trace_overhead": overhead,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    locate_source()
    from speed import SpeedClock
    from tracing import Tracer
    from workloads import WORKLOADS, Layers

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    # A terminated run still stops the server it started (``finally`` below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    workload = WORKLOADS[args.workload](str(OUT))
    # Layer metrics are per-job means, so a traced run needs one round.
    rounds = 1 if args.trace else workload.rounds_for(args.seconds)
    run_problems = []
    try:
        setup_times = []
        previous = None
        for _ in range(SETUP_REPEATS):
            clock = SpeedClock()
            clock.start()
            try:
                start = time.perf_counter()
                workload.setup(args.seed)
                end = time.perf_counter()
            finally:
                clock.stop()
            setup_times.append(clock.between(start, end))
            inputs = [(case.left_values, case.right_values) for case in workload.cases]
            if previous is not None and inputs != previous:
                run_problems.append("set-up is not deterministic for this seed")
            previous = inputs
        # The benchmark's own inputs stay alive all run; keep them out of
        # the cyclic collector's scans so they do not tax the jobs.
        gc.collect()
        gc.freeze()
        calibration = []
        # End-to-end times are reference seconds (speed.py).  A traced run
        # reports none, and keeps both of its passes on raw wall time so
        # ``bench.trace_overhead`` compares like with like.
        clock = None if args.trace else SpeedClock()
        jobs, wall = workload.measure(rounds, None, calibration, clock)
        checked = list(jobs)
        if args.trace:
            workload.layers = Layers()
            tracer = Tracer()
            untraced_wall = wall
            jobs, wall = workload.measure(rounds, tracer, calibration)
            overhead = wall / untraced_wall - 1.0
            checked.extend(jobs)
    finally:
        workload.close()

    # Both passes are checked; the traced pass must repeat the untraced one.
    failed, repeat_problems = check_jobs(checked, workload.cases)
    run_problems.extend(repeat_problems)
    for problem in run_problems:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    for job in checked:
        reference = (f"  reference {job.seconds:8.3f} s  first {job.first_seconds:8.4f} s"
                     if job.reference else "")
        print(f"{job.case:>22} round {job.round:>2}  job {job.end - job.start:8.3f} s  "
              f"first {job.first - job.start:8.4f} s{reference}  pairs {len(job.output)}",
              file=sys.stderr)

    if args.trace:
        traced_failed = sum(1 for index in failed if index >= len(checked) - len(jobs))
        values = per_layer(workload, tracer, len(jobs) - traced_failed, calibration,
                           overhead)
        units = PER_LAYER
        extra = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
                 "per_layer": values,
                 "vocabulary": getattr(workload, "vocabulary", {})}
        tracer.write(str(OUT / f"spans-{args.workload}-seed{args.seed}.json"), extra)
    else:
        values = end_to_end(workload, jobs, failed, wall, setup_times, calibration)
        units = END_TO_END
    result = {
        "correct": not run_problems,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        status = main()
    finally:
        stop_resource_tracker()
    sys.exit(status)
