"""The benchmark's three fixed-work workloads.

Every workload runs a fixed list of linkage jobs built from the paper's
standard ``repro.datagen`` test cases, at their own seeds: one warm-up
job (the first child-variant case; checked, and compared with its
measured repeat), then ``rounds`` whole rounds over the workload's
cases.  The workload seed only fixes the order the jobs run in (a seeded
shuffle), so every run does the same work and reports the same recall
and precision.  There are no time-bounded loops.

Each workload has an untraced path, the one a user runs, and a traced
path that makes the same calls into the layers one at a time so each can
be timed (see ``tracing.py``).  Only the untraced path feeds the
end-to-end metrics.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.datagen.testcases import STANDARD_TEST_CASES, generate_test_case
from repro.jobs import DEFAULT_STREAM_BATCH, LinkageJob
from repro.joins.base import JoinMode, JoinSide
from repro.joins.engine import StepBatch, SwitchRecord
from repro.runtime.events import EventBus, ShardCompleted
from repro.runtime.parallel import (
    AggregatedEventBus,
    ParallelExecutor,
    estimate_shard_payload_bytes,
)
from repro.runtime.session import JoinSession
from repro.runtime.sharding import ShardPlan

from oracle import Triple, identical_truth_pairs
from speed import SpeedClock
from tracing import Tracer

ATTRIBUTE = "location"


@dataclass
class Case:
    """One generated test case and what the checks need from it."""

    name: str
    parent: object
    child: object
    left_values: List[str]
    right_values: List[str]
    truth: List[Tuple[int, int]]
    identical: Set[Tuple[int, int]]

    @property
    def tuples(self) -> int:
        return len(self.left_values) + len(self.right_values)


def make_case(name: str, parent_size: int, child_size: int) -> Case:
    data = generate_test_case(
        STANDARD_TEST_CASES[name], parent_size=parent_size, child_size=child_size
    )
    left_values = [str(value) for value in data.parent.column(ATTRIBUTE)]
    right_values = [str(value) for value in data.child.column(ATTRIBUTE)]
    return Case(
        name=name,
        parent=data.parent,
        child=data.child,
        left_values=left_values,
        right_values=right_values,
        truth=list(data.true_pairs),
        identical=identical_truth_pairs(data.true_pairs, left_values, right_values),
    )


@dataclass
class JobRun:
    """One job as the caller saw it."""

    case: str
    #: 0-based round; -1 for the warm-up job.
    round: int
    start: float
    end: float
    first: float
    output: List[Triple] = field(default_factory=list)
    job_id: str = ""
    #: ``result_size`` as ``GET /jobs/{id}`` reports it (server only).
    result_size: Optional[int] = None
    error: Optional[str] = None
    #: Raw NDJSON lines (server), parsed into ``output`` after the phase.
    lines: List[bytes] = field(default_factory=list)
    #: Reference seconds to the end and to the first match, when the
    #: phase ran under a :class:`SpeedClock`; ``None`` means raw times.
    reference: Optional[Tuple[float, float]] = None

    @property
    def seconds(self) -> float:
        """The job's time as the end-to-end metrics state it."""
        return self.reference[0] if self.reference else self.end - self.start

    @property
    def first_seconds(self) -> float:
        return self.reference[1] if self.reference else self.first - self.start


# -- calibration ------------------------------------------------------------------

_CAL_WORDS = [f"municipality {i} of region {i % 97}" for i in range(400)]


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python gram-counting loop (no repro code)."""
    start = time.perf_counter()
    counts: Dict[str, int] = {}
    for _ in range(6):
        for word in _CAL_WORDS:
            for i in range(len(word) - 2):
                gram = word[i : i + 3]
                counts[gram] = counts.get(gram, 0) + 1
    return time.perf_counter() - start


@contextmanager
def _running(clock: Optional[SpeedClock]):
    """Run the block under ``clock`` (if any), stopping it on every exit."""
    if clock is None:
        yield
        return
    clock.start()
    try:
        yield
    finally:
        clock.stop()


def _apply_reference(jobs: List[JobRun], clock: Optional[SpeedClock]) -> None:
    if clock is not None:
        for job in jobs:
            job.reference = (clock.between(job.start, job.end),
                             clock.between(job.start, job.first))


# -- layer accumulators -------------------------------------------------------------


class Layers:
    """Per-layer sums a traced run collects (see ``run.py`` for the metrics)."""

    def __init__(self) -> None:
        self.sums: Dict[str, float] = {}
        self.maxima: Dict[str, float] = {}

    def add(self, name: str, value: float) -> None:
        self.sums[name] = self.sums.get(name, 0.0) + value

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def get(self, name: str) -> float:
        return self.sums.get(name, 0.0)


def _add_counters(layers: Layers, counters, trace_summary, weighted_cost) -> None:
    layers.add("candidate_scan_work", counters.candidate_scan_work)
    layers.add("candidate_set_size", counters.candidate_set_size)
    layers.add("approx_probes", counters.approx_probes)
    _add_trace(layers, trace_summary)
    layers.add("weighted_cost", weighted_cost)


def _add_trace(layers: Layers, summary: Dict[str, object]) -> None:
    steps = summary["total_steps"]
    layers.add("transitions", summary["transitions"])
    layers.add("assessments", summary["assessments"])
    layers.add("steps", steps)
    layers.add("exact_steps", summary["exact_step_fraction"] * steps)


# -- the sequential workloads ----------------------------------------------------------


class Workload:
    """Base: generate cases, then run jobs one after another."""

    name = ""
    case_names: Sequence[str] = ()
    parent_size = 0
    child_size = 0
    #: ``--seconds`` divided by this (rounded, at least 1) fixes the round
    #: count; roughly one round's measured time on a 2-core machine.
    round_seconds = 1.0

    def __init__(self, workdir: str) -> None:
        #: Where the workload may write (a server's store and log).
        self.workdir = workdir
        self.cases: List[Case] = []
        self.layers = Layers()

    def rounds_for(self, seconds: float) -> int:
        return max(1, int(seconds / self.round_seconds + 0.5))

    def setup(self, seed: int) -> None:
        order = list(self.case_names)
        random.Random(seed).shuffle(order)
        self.cases = [
            make_case(name, self.parent_size, self.child_size) for name in order
        ]

    def close(self) -> None:
        """Stop whatever :meth:`setup` started."""

    def warm_up_case(self) -> Case:
        """The first child-variant case of the run's order (the cheap kind)."""
        return next(case for case in self.cases if case.name.endswith("_child"))

    def measure(
        self, rounds: int, tracer: Optional[Tracer], calibration: List[float],
        clock: Optional[SpeedClock] = None,
    ) -> Tuple[List[JobRun], float]:
        """Warm-up plus ``rounds`` rounds; returns the jobs and the
        measured seconds (the sum of the jobs, calibration loops excluded):
        reference seconds under ``clock``, raw wall seconds without."""
        with _running(clock):
            jobs = [self._job(self.warm_up_case(), -1, tracer, clock)]
            for round_index in range(rounds):
                for case in self.cases:
                    calibration.append(calibration_loop())
                    jobs.append(self._job(case, round_index, tracer, clock))
            calibration.append(calibration_loop())
        _apply_reference(jobs, clock)
        return jobs, sum(job.seconds for job in jobs if job.round >= 0)

    def _job(self, case: Case, round_index: int, tracer: Optional[Tracer],
             clock: Optional[SpeedClock]) -> JobRun:
        job_id = f"{case.name}#{round_index}"
        if clock is not None:
            clock.mark()
        start = time.perf_counter()
        try:
            if tracer is None:
                output, first = self.run_job(case)
            else:
                with tracer.span("job", job=job_id):
                    output, first = self.run_job_traced(case, tracer, job_id)
        except Exception as error:  # a failed job is counted, not fatal
            end = time.perf_counter()
            return JobRun(case.name, round_index, start, end, end, job_id=job_id,
                          error=f"{type(error).__name__}: {error}")
        end = time.perf_counter()
        return JobRun(case.name, round_index, start, end, first or end,
                      output=output, job_id=job_id)

    def _builder(self, case: Case) -> LinkageJob:
        return LinkageJob.between(case.parent, case.child).on(ATTRIBUTE).strategy(
            "adaptive"
        )

    def run_job(self, case: Case) -> Tuple[List[Triple], Optional[float]]:
        raise NotImplementedError

    def run_job_traced(
        self, case: Case, tracer: Tracer, job_id: str
    ) -> Tuple[List[Triple], Optional[float]]:
        raise NotImplementedError


class PaperAdaptive(Workload):
    """Streamed, unsharded MAR jobs: the ``repro link --stream`` path."""

    name = "paper-adaptive-20k"
    # One job per Fig. 5 pattern; two with variants in the child table,
    # two in both (the "both" jobs cross BITSET_VOCAB_LIMIT).
    case_names = ("uniform_child", "interleaved_low_both", "few_high_child",
                  "many_high_both")
    parent_size = 8082
    child_size = 12000
    round_seconds = 28.0

    def __init__(self, workdir: str) -> None:
        super().__init__(workdir)
        #: Shared gram vocabulary per case, from the traced run.
        self.vocabulary: Dict[str, int] = {}

    def run_job(self, case: Case) -> Tuple[List[Triple], Optional[float]]:
        handle = self._builder(case).build()
        first = None
        matches = []
        for match in handle.stream_matches():
            if first is None:
                first = time.perf_counter()
            matches.append(match)
        return [_streamed_triple(match) for match in matches], first

    def run_job_traced(
        self, case: Case, tracer: Tracer, job_id: str
    ) -> Tuple[List[Triple], Optional[float]]:
        layers = self.layers
        with tracer.span("jobs.build", job=job_id):
            spec = self._builder(case).build().spec
        # The calls JobHandle.stream_matches() makes, one at a time.
        with tracer.span("runtime.session.init", job=job_id):
            bus = EventBus()
            session = JoinSession(
                spec.left, spec.right, spec.attribute, spec.run_config, bus=bus
            )
        counts = {"batches": 0, "catch_up": 0, "approx_matches": 0}

        def on_switch(record: SwitchRecord) -> None:
            counts["catch_up"] += record.catch_up_tuples

        bus.subscribe(SwitchRecord, on_switch)
        first = None
        matches = []
        with tracer.span("runtime.session.run", job=job_id) as run_span:
            mark = [time.perf_counter()]

            def on_batch(batch: StepBatch) -> None:
                now = time.perf_counter()
                approximate = (batch.left_mode is JoinMode.APPROXIMATE
                               or batch.right_mode is JoinMode.APPROXIMATE)
                tracer.add("joins.approx_batch" if approximate else "joins.exact_batch",
                           mark[0], now, job=job_id, parent=run_span["id"])
                mark[0] = now
                counts["batches"] += 1
                counts["catch_up"] += batch.catch_up_tuples
                if approximate:
                    counts["approx_matches"] += sum(
                        1 for event in batch.match_events
                        if event.mode is JoinMode.APPROXIMATE)

            bus.subscribe(StepBatch, on_batch)
            for batch in session.run_batches(max_batch=DEFAULT_STREAM_BATCH):
                for event in batch:
                    if first is None:
                        first = time.perf_counter()
                    matches.append(event)
        outcome = session.result()
        layers.add("batches", counts["batches"])
        layers.add("catch_up_tuples", counts["catch_up"])
        layers.add("approx_matches", counts["approx_matches"])
        _add_counters(layers, outcome.counters, outcome.trace.summary(),
                      outcome.weighted_cost())
        vocabulary = len(session.engine.sides[JoinSide.LEFT].interner)
        layers.peak("gram_vocabulary", vocabulary)
        self.vocabulary[case.name] = vocabulary
        output = [
            (event.pair_key()[0], event.pair_key()[1], round(event.similarity, 4))
            for event in matches
        ]
        return output, first


def _streamed_triple(match) -> Triple:
    return (match.left_index, match.right_index, round(match.event.similarity, 4))


class ShardedProcess(Workload):
    """Blocking 2-shard adaptive jobs on the process backend."""

    name = "sharded-process-5k"
    case_names = tuple(STANDARD_TEST_CASES)
    parent_size = 2000
    child_size = 3000
    round_seconds = 6.0

    def _builder(self, case: Case) -> LinkageJob:
        return super()._builder(case).sharded(
            2, backend="process", partitioner="gram-prefix"
        )

    def run_job(self, case: Case) -> Tuple[List[Triple], Optional[float]]:
        result = self._builder(case).build().run()
        return [(left, right, None) for left, right in result.pairs], None

    def run_job_traced(
        self, case: Case, tracer: Tracer, job_id: str
    ) -> Tuple[List[Triple], Optional[float]]:
        layers = self.layers
        with tracer.span("jobs.build", job=job_id):
            spec = self._builder(case).build().spec
        # The calls JobHandle.run() makes for a sharded job, one at a time.
        with tracer.span("runtime.sharding.plan", job=job_id):
            plan = ShardPlan.build(
                spec.left, spec.right, spec.attribute, spec.shards,
                spec.partitioner, config=spec.run_config, handoff=spec.handoff,
            )
        walls: List[float] = []
        bus = AggregatedEventBus()
        bus.subscribe(ShardCompleted, lambda event: walls.append(event.wall_seconds))
        with tracer.span("runtime.parallel.run", job=job_id) as run_span:
            executor = ParallelExecutor(
                backend=spec.backend, max_workers=spec.max_workers,
                failure_policy=spec.failure_policy,
            )
            sharded = executor.run(plan, spec.run_config, bus=bus)
        run_s = run_span["end"] - run_span["start"]
        with tracer.span("runtime.sharding.merge", job=job_id):
            pairs = sharded.matched_pairs()
            sharded.describe_json(policy=spec.run_config.policy)
        layers.add("run_s", run_s)
        layers.add("shard_max_s", max(walls))
        layers.add("shard_sum_s", sum(walls))
        layers.add("worker_seconds", run_s * min(spec.max_workers or plan.shard_count,
                                                 plan.shard_count))
        layers.add("overhead_s", run_s - max(walls))
        left_factor, right_factor = plan.replication_factors()
        layers.add("replicated", left_factor * plan.left_input_size
                   + right_factor * plan.right_input_size)
        layers.add("inputs", plan.left_input_size + plan.right_input_size)
        volumes = [max(left * right, 1) for left, right in plan.shard_sizes()]
        layers.add("skew", max(volumes) / (sum(volumes) / len(volumes)))
        layers.add("duplicates", sharded.duplicate_match_count)
        _add_counters(layers, sharded.counters, sharded.trace.summary(),
                      sharded.weighted_cost())
        # Handoff probes, not children of the job span: what the process
        # backend publishes and ships for this plan, timed on their own.
        start = time.perf_counter()
        published = plan.publish_blocks()
        if published is not None:
            published.release()
        tracer.add("runtime.handoff.publish", start, time.perf_counter(), job=job_id,
                   parent=None)
        layers.add("task_bytes", sum(estimate_shard_payload_bytes(plan, spec.run_config)))
        return [(left, right, None) for left, right in pairs], None


# -- the server workload ---------------------------------------------------------------


class ServerClosedLoop(Workload):
    """``repro serve`` as a subprocess, driven by two closed-loop clients."""

    name = "server-closed-loop-5k"
    case_names = tuple(STANDARD_TEST_CASES)
    parent_size = 2000
    child_size = 3000
    # A round takes ~11 s; 8 buys a third round at 24 s, because the
    # closed loop's job times spread more than the other workloads'.
    round_seconds = 8.0
    clients = 2

    def __init__(self, workdir: str) -> None:
        super().__init__(workdir)
        self.store = os.path.join(workdir, "server-store.jsonl")
        self.bodies: Dict[str, bytes] = {}
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def setup(self, seed: int) -> None:
        self.close()
        super().setup(seed)
        self.bodies = {case.name: _payload(case) for case in self.cases}
        if os.path.exists(self.store):
            os.remove(self.store)
        self._start_server()

    def _start_server(self) -> None:
        env = dict(os.environ)
        src = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        log = open(os.path.join(self.workdir, "server.log"), "ab")
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--host", "127.0.0.1",
                 "--port", "0", "--workers", "2", "--store", self.store],
                stdout=subprocess.PIPE, stderr=log, env=env,
            )
        finally:
            log.close()
        line = _read_line(self.process, deadline=time.monotonic() + 60.0)
        if not line.startswith("serving on http://"):
            self.close()
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        status, _ = self._request(http.client.HTTPConnection("127.0.0.1", self.port),
                                  "GET", "/healthz")
        if status != 200:
            raise RuntimeError(f"/healthz answered {status}")

    def close(self) -> None:
        process, self.process = self.process, None
        if process is None:
            return
        process.send_signal(signal.SIGTERM)
        try:
            process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.communicate()
        if os.path.exists(self.store):
            os.remove(self.store)

    @staticmethod
    def _request(conn, method: str, path: str, body: Optional[bytes] = None):
        headers = {"Content-Type": "application/json"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")

    def _metric(self, name: str) -> float:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", "/metrics")
            text = conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()
        for line in text.splitlines():
            key, _, value = line.partition(" ")
            if key == name:
                return float(value)
        return 0.0

    def measure(
        self, rounds: int, tracer: Optional[Tracer], calibration: List[float],
        clock: Optional[SpeedClock] = None,
    ) -> Tuple[List[JobRun], float]:
        """Warm-up, then the clients' closed loops; returns the jobs and
        the seconds from the first ``POST`` to the last NDJSON line."""
        for _ in range(3):
            calibration.append(calibration_loop())
        with _running(clock):
            jobs, wall = self._closed_loop(rounds, tracer, clock)
        for _ in range(3):
            calibration.append(calibration_loop())
        _apply_reference(jobs, clock)
        if clock is not None:
            measured = [job for job in jobs if job.round >= 0]
            wall = clock.between(min(job.start for job in measured),
                                 max(job.end for job in measured))
        for job in jobs:
            job.output = [_ndjson_triple(line) for line in job.lines]
            job.lines = []
        self._fetch_result_sizes(jobs)
        return jobs, wall

    def _closed_loop(
        self, rounds: int, tracer: Optional[Tracer], clock: Optional[SpeedClock]
    ) -> Tuple[List[JobRun], float]:
        # The clock's probes run on this (main) thread while it waits for
        # the clients; the clients never probe.
        if clock is not None:
            clock.mark()
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
        try:
            jobs = [self._client_job(conn, self.warm_up_case(), -1, tracer)]
        finally:
            conn.close()
        shards_before = self._metric("shards_completed") if tracer else 0.0
        store_before = os.path.getsize(self.store) if tracer else 0
        results: List[List[JobRun]] = [[] for _ in range(self.clients)]
        barrier = threading.Barrier(self.clients)

        def client(index: int) -> None:
            # Client k starts its pass over the (shuffled) cases at case
            # 4k, so the two never submit the same case at the same time.
            offset = index * len(self.cases) // self.clients
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=120)
            try:
                barrier.wait()
                for round_index in range(rounds):
                    for i in range(len(self.cases)):
                        case = self.cases[(offset + i) % len(self.cases)]
                        results[index].append(
                            self._client_job(conn, case, round_index, tracer))
            finally:
                conn.close()

        threads = [threading.Thread(target=client, args=(i,)) for i in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        measured_jobs = [job for result in results for job in result]
        start = min(job.start for job in measured_jobs)
        wall = max(job.end for job in measured_jobs) - start
        if tracer is not None:
            count = len(measured_jobs)
            self.layers.add("shards_completed",
                            self._metric("shards_completed") - shards_before)
            self.layers.add("store_bytes",
                            (os.path.getsize(self.store) - store_before) / count)
        jobs.extend(measured_jobs)
        return jobs, wall

    def _client_job(
        self, conn, case: Case, round_index: int, tracer: Optional[Tracer]
    ) -> JobRun:
        if tracer is None:
            return self._client_request(conn, case, round_index, None, None)
        with tracer.span("job") as span:
            job = self._client_request(conn, case, round_index, tracer, span)
        return job

    def _client_request(
        self, conn, case: Case, round_index: int, tracer: Optional[Tracer],
        span: Optional[dict],
    ) -> JobRun:
        body = self.bodies[case.name]
        start = time.perf_counter()
        job = JobRun(case.name, round_index, start, start, start)
        try:
            status, reply = self._request(conn, "POST", "/jobs", body)
            if status != 201:
                raise RuntimeError(f"POST /jobs answered {status}: {reply}")
            posted = time.perf_counter()
            job.job_id = reply["id"]
            if tracer is not None:
                span["job"] = job.job_id
                tracer.add("server.post", start, posted, job=job.job_id)
                state = reply["state"]
                while state not in ("running", "finished"):
                    _, status_body = self._request(conn, "GET", f"/jobs/{job.job_id}")
                    state = status_body["state"]
                    if state in ("failed", "cancelled"):
                        raise RuntimeError(f"job {job.job_id} ended {state}")
                tracer.add("server.queue_wait", posted, time.perf_counter(),
                           job=job.job_id)
            requested = time.perf_counter()
            conn.request("GET", f"/jobs/{job.job_id}/matches")
            response = conn.getresponse()
            if response.status != 200:
                raise RuntimeError(f"GET matches answered {response.status}")
            lines = job.lines
            while True:
                line = response.readline()
                if not line:
                    break
                if not lines:
                    job.first = time.perf_counter()
                lines.append(line)
            job.end = time.perf_counter()
            if not lines:
                job.first = job.end
            if tracer is not None:
                tracer.add("server.first_line", requested, job.first, job=job.job_id)
                tracer.add("server.stream", job.first, job.end, job=job.job_id)
                self.layers.add("request_bytes", len(body))
                self.layers.add("stream_bytes", sum(len(line) for line in lines))
                self.layers.add("post_s", posted - start)
                self.layers.add("queue_wait_s", requested - posted)
                self.layers.add("first_line_s", job.first - requested)
                self.layers.add("stream_s", job.end - job.first)
        except Exception as error:  # a failed job is counted, not fatal
            job.end = time.perf_counter()
            job.error = f"{type(error).__name__}: {error}"
        return job

    def _fetch_result_sizes(self, jobs: List[JobRun]) -> None:
        """``result_size`` of every job, once the measured phase is over."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            for job in jobs:
                if job.error is not None:
                    continue
                deadline = time.monotonic() + 30.0
                while True:
                    _, body = self._request(conn, "GET", f"/jobs/{job.job_id}")
                    if body.get("result_size") is not None:
                        job.result_size = body["result_size"]
                        _add_trace(self.layers, body["statistics"]["trace"])
                        break
                    if time.monotonic() > deadline:
                        job.error = f"job {job.job_id} never reported result_size"
                        break
                    time.sleep(0.01)
        finally:
            conn.close()


def _payload(case: Case) -> bytes:
    """The POST body: a 2-shard ``hash`` adaptive job with inline tables."""

    def inline(table) -> Dict[str, object]:
        return {
            "columns": list(table.schema.attributes),
            "rows": [list(record.values) for record in table],
        }

    return json.dumps({
        "left": inline(case.parent),
        "right": inline(case.child),
        "attribute": ATTRIBUTE,
        "strategy": "adaptive",
        "shards": 2,
        "partitioner": "hash",
    }).encode("utf-8")


def _ndjson_triple(line: bytes) -> Triple:
    match = json.loads(line)
    return (match["left_index"], match["right_index"], match["similarity"])


def _read_line(process: subprocess.Popen, deadline: float) -> str:
    """One stdout line of ``process``, or ``""`` at the deadline."""
    stream = process.stdout
    while time.monotonic() < deadline:
        ready, _, _ = select.select([stream], [], [], 0.1)
        if ready:
            return stream.readline().decode("utf-8", "replace").strip()
        if process.poll() is not None:
            return ""
    return ""


WORKLOADS = {
    PaperAdaptive.name: PaperAdaptive,
    ShardedProcess.name: ShardedProcess,
    ServerClosedLoop.name: ServerClosedLoop,
}
