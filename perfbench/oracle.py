"""Output checks computed apart from the linkage code.

Nothing here imports ``repro``: the tokenizer, the Jaccard coefficient
and the counter test are re-derived from the method's definition (paper
Sec. 2.2), so a fault in the engine's own gram machinery cannot hide a
fault in its output.

A job's output is a list of ``(left_index, right_index, similarity)``
triples in emission order; ``similarity`` is ``None`` where the path
under test does not expose it (the blocking sharded ``run()``).
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

#: The padding character and gram width the paper's SSHJoin uses.
PAD = "¤"
Q = 3
#: The similarity threshold every workload runs at (the paper default).
THETA = 0.85

Triple = Tuple[int, int, Optional[float]]


def gram_set(value: str) -> FrozenSet[str]:
    """Distinct padded q-grams of ``value`` (empty for the empty string)."""
    if not value:
        return frozenset()
    framed = PAD * (Q - 1) + value + PAD * (Q - 1)
    return frozenset(framed[i : i + Q] for i in range(len(value) + Q - 1))


class GramCache:
    """Memoised :func:`gram_set` (the same strings recur across pairs)."""

    def __init__(self) -> None:
        self._sets: Dict[str, FrozenSet[str]] = {}

    def __call__(self, value: str) -> FrozenSet[str]:
        grams = self._sets.get(value)
        if grams is None:
            grams = self._sets[value] = gram_set(value)
        return grams


def jaccard(left: FrozenSet[str], right: FrozenSet[str]) -> float:
    union = len(left | right)
    return len(left & right) / union if union else 1.0


def passes_counter_test(left: FrozenSet[str], right: FrozenSet[str]) -> bool:
    """Shared grams reach ``⌈θ·g⌉`` with ``g`` either side's gram count."""
    shared = len(left & right)
    for grams in (left, right):
        g = len(grams)
        if g and shared >= min(g, max(1, math.ceil(THETA * g))):
            return True
    return False


def check_job(
    output: Sequence[Triple],
    left_values: Sequence[str],
    right_values: Sequence[str],
    identical_truth: Set[Tuple[int, int]],
    grams: Optional[GramCache] = None,
) -> List[str]:
    """Every per-job check; returns one message per violated property.

    * each pair with different strings passes the counter test;
    * each reported similarity is the Jaccard coefficient, to 4 places;
    * no pair is reported twice;
    * each ground-truth pair whose two strings are identical is found.
    """
    grams = grams or GramCache()
    problems: List[str] = []
    seen: Set[Tuple[int, int]] = set()
    for left, right, similarity in output:
        pair = (left, right)
        if pair in seen:
            problems.append(f"pair {pair} reported twice")
            continue
        seen.add(pair)
        if not (0 <= left < len(left_values) and 0 <= right < len(right_values)):
            problems.append(f"pair {pair} out of range")
            continue
        left_value, right_value = left_values[left], right_values[right]
        left_grams, right_grams = grams(left_value), grams(right_value)
        if left_value != right_value and not passes_counter_test(
            left_grams, right_grams
        ):
            problems.append(
                f"pair {pair} fails the counter test: "
                f"{left_value!r} vs {right_value!r}"
            )
        if similarity is not None:
            expected = round(jaccard(left_grams, right_grams), 4)
            if similarity != expected:
                problems.append(
                    f"pair {pair} similarity {similarity} != Jaccard {expected}"
                )
    missing = identical_truth - seen
    if missing:
        problems.append(
            f"{len(missing)} identical-string ground-truth pair(s) missing, "
            f"e.g. {min(missing)}"
        )
    return problems


def identical_truth_pairs(
    truth: Sequence[Tuple[int, int]],
    left_values: Sequence[str],
    right_values: Sequence[str],
) -> Set[Tuple[int, int]]:
    """Ground-truth pairs whose two join strings are equal."""
    return {
        (left, right)
        for left, right in truth
        if left_values[left] == right_values[right]
    }
