"""Evaluation statistics: unbiased pass@k and memorization-rate scoring.

pass@k is the probability that at least one of a uniformly random size-k
subset of n attempts is correct, computed with the overflow-safe product
form of 1 - C(n-c, k)/C(n, k).  Memorization scoring counts byte-exact
sentence continuations produced elsewhere; generation is out of scope.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

__all__ = [
    "SentencePair",
    "mean_over_runs",
    "memorization_rate",
    "pass_at_k",
    "split_sentences",
]


def pass_at_k(n: int, c: int, k: int) -> float:
    """Unbiased pass@k estimate from n attempts with c correct.

    Equals 1 - C(n-c, k)/C(n, k), evaluated as a product of ratios so that
    large n cannot overflow.  Non-decreasing in both c and k, and
    pass@1 == c/n.
    """
    if n < 1:
        raise ValueError(f"need at least one attempt, got n={n}")
    if not 0 <= c <= n:
        raise ValueError(f"c must be within [0, n], got c={c}, n={n}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be within [1, n], got k={k}, n={n}")
    if c == 0:
        return 0.0
    if n - c < k:
        return 1.0  # every size-k subset must contain a correct attempt
    miss_probability = 1.0
    for i in range(k):
        miss_probability *= (n - c - i) / (n - i)
    return 1.0 - miss_probability


@dataclass(frozen=True)
class SentencePair:
    """A reference sentence and the continuation generated for it."""

    reference: str
    generated: str

    def __post_init__(self) -> None:
        if not self.reference:
            raise ValueError("reference sentence must be non-empty")

    @property
    def matches(self) -> bool:
        """Byte-exact comparison after trimming trailing whitespace."""
        return self.reference.rstrip() == self.generated.rstrip()


def memorization_rate(pairs: Sequence[SentencePair]) -> float:
    """Percentage of pairs whose continuation exactly matches the reference."""
    if not pairs:
        raise ValueError("need at least one sentence pair")
    return 100.0 * sum(pair.matches for pair in pairs) / len(pairs)


_SENTENCE_BOUNDARY = re.compile(r"(?<=\.)\s+")


def split_sentences(text: str) -> list[str]:
    """Split on a period followed by whitespace.

    Deliberately simple: abbreviations and decimal points followed by
    whitespace will split too.  Fragments keep their trailing period; the
    last fragment is included even without one.
    """
    return [part for part in _SENTENCE_BOUNDARY.split(text) if part.strip()]


def mean_over_runs(values: Iterable[float]) -> float:
    """Arithmetic mean over evaluation runs (compensated summation)."""
    values = list(values)
    if not values:
        raise ValueError("need at least one value")
    return math.fsum(values) / len(values)
