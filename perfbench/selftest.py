#!/usr/bin/env python3
"""Seconds-long self-test of the benchmark's output checks.

Runs one tiny streamed adaptive job, confirms its output passes every
check, then confirms each check rejects a deliberately corrupted copy:
a dropped identical-string pair, an injected dissimilar pair, a
duplicated pair, a similarity off by 0.01, an NDJSON line count that
disagrees with ``result_size`` and a repeat that differs; that
``speed.SpeedClock`` scales job time by the probes' speed and leaves the
probes out; and that ``BENCHMARK.json`` lists exactly the metrics
``run.py`` prints.  Exits 1 if any check fails.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    run.locate_source()
    from oracle import check_job, gram_set, passes_counter_test
    from workloads import JobRun, PaperAdaptive, make_case

    case = make_case("uniform_both", parent_size=300, child_size=450)
    output, _ = PaperAdaptive(str(run.OUT)).run_job(case)
    verdicts = []

    def expect(label: str, problems, rejected: bool) -> None:
        ok = bool(problems) == rejected
        verdicts.append(ok)
        shown = problems[0] if problems else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {shown}")

    def checked(triples):
        return check_job(triples, case.left_values, case.right_values, case.identical)

    expect("clean output", checked(output), rejected=False)

    identical = sorted(case.identical)
    dropped = [t for t in output if (t[0], t[1]) != identical[0]]
    expect("dropped identical-string pair", checked(dropped), rejected=True)

    reported = {(left, right) for left, right, _ in output}
    dissimilar = next(
        (left, right)
        for left in range(len(case.left_values))
        for right in range(len(case.right_values))
        if (left, right) not in reported
        and not passes_counter_test(gram_set(case.left_values[left]),
                                    gram_set(case.right_values[right]))
    )
    expect("injected dissimilar pair",
           checked(output + [(dissimilar[0], dissimilar[1], None)]), rejected=True)

    expect("duplicated pair", checked(output + [output[0]]), rejected=True)

    approximate = next(i for i, t in enumerate(output) if t[2] < 1.0)
    shifted = list(output)
    left, right, similarity = shifted[approximate]
    shifted[approximate] = (left, right, round(similarity + 0.01, 4))
    expect("similarity off by 0.01", checked(shifted), rejected=True)

    def job(triples, result_size=None, round_index=0):
        return JobRun(case.name, round_index, 0.0, 1.0, 0.5, output=triples,
                      result_size=result_size)

    failed, _ = run.check_jobs([job(output, result_size=len(output) + 1)], [case])
    expect("NDJSON count vs result_size", sorted(failed), rejected=True)

    reordered = output[1:] + output[:1]
    _, problems = run.check_jobs([job(output), job(reordered, round_index=1)], [case])
    expect("repeat with a different sequence", problems, rejected=True)

    # Reference seconds: the gap between a reference-speed probe and a
    # half-speed one counts at 3/4 in all, its first 10 ms at 0.9 (speed
    # falls linearly across the gap); probe time and time past ``until``
    # do not count.
    from speed import REFERENCE_PROBE_S, SpeedClock

    clock = SpeedClock()
    clock.samples = [(0.0, REFERENCE_PROBE_S), (0.0255, 0.0255 + 2 * REFERENCE_PROBE_S),
                     (0.2, 0.2 + REFERENCE_PROBE_S)]
    for until, expected in ((0.0105, 0.009), (0.0255, 0.01875), (0.2, 0.148875)):
        got = clock.between(0.0, until)
        expect(f"reference seconds to {until}",
               [] if abs(got - expected) < 1e-12 else [f"{got} != {expected}"],
               rejected=False)

    # BENCHMARK.json names exactly the metrics run.py prints, with their units.
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {metric["name"]: metric["unit"] for metric in spec[key]}
        expect(f"BENCHMARK.json {key} matches run.py", [] if listed == table
               else [f"{sorted(set(listed.items()) ^ set(table.items()))}"],
               rejected=False)

    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
