"""Duplication-bucket upsampling weights and mix-manifest math.

Near-duplicate cluster sizes land in coarse buckets; each (bucket, source
class) pair maps to a small integer upsampling weight.  Weights multiply
token mass: upsampling is repetition in expectation.  A
:class:`MixManifest` turns per-group raw token counts into sampling
proportions, and :func:`sample_plan` rounds proportions to integer token
quotas that sum exactly to a target.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping

from corpusops.corpus import SourceClass

__all__ = [
    "DEFAULT_WEIGHTS",
    "DupBucket",
    "GroupStat",
    "ManifestRow",
    "MixManifest",
    "bucket_of",
    "build_manifest",
    "sample_plan",
    "weight_of",
]


class DupBucket(Enum):
    """Ranges of near-duplicate cluster size; they partition counts >= 1."""

    B1 = "1"
    B2_5 = "2-5"
    B6_100 = "6-100"
    B101_1000 = "101-1000"
    B1000_PLUS = ">1000"


def bucket_of(dup_count: int) -> DupBucket:
    """Bucket for a duplicate count; total and monotone over counts >= 1."""
    if dup_count < 1:
        raise ValueError(f"dup_count must be >= 1, got {dup_count}")
    if dup_count == 1:
        return DupBucket.B1
    if dup_count <= 5:
        return DupBucket.B2_5
    if dup_count <= 100:
        return DupBucket.B6_100
    if dup_count <= 1000:
        return DupBucket.B101_1000
    return DupBucket.B1000_PLUS


#: Upsampling weight per (bucket, is-CommonCrawl).  CommonCrawl documents
#: get graded weights by duplication level; every other source gets a flat
#: 2 once duplicated.  Unique documents always weigh 1.
DEFAULT_WEIGHTS: Mapping[tuple[DupBucket, bool], int] = {
    (DupBucket.B1, True): 1,
    (DupBucket.B2_5, True): 3,
    (DupBucket.B6_100, True): 5,
    (DupBucket.B101_1000, True): 8,
    (DupBucket.B1000_PLUS, True): 10,
    (DupBucket.B1, False): 1,
    (DupBucket.B2_5, False): 2,
    (DupBucket.B6_100, False): 2,
    (DupBucket.B101_1000, False): 2,
    (DupBucket.B1000_PLUS, False): 2,
}


def weight_of(bucket: DupBucket, source_class: SourceClass) -> int:
    return DEFAULT_WEIGHTS[(bucket, source_class is SourceClass.COMMON_CRAWL)]


@dataclass(frozen=True)
class GroupStat:
    """Aggregated raw token count for one (group, bucket, source) cell."""

    group: str
    tokens: int
    bucket: DupBucket
    source_class: SourceClass

    def __post_init__(self) -> None:
        if not isinstance(self.group, str):
            raise ValueError(f"group must be a string, got {self.group!r}")
        if not isinstance(self.tokens, int) or isinstance(self.tokens, bool):
            raise ValueError(f"token count must be an integer, got {self.tokens!r}")
        if self.tokens < 0:
            raise ValueError(f"token count must be >= 0, got {self.tokens}")


@dataclass(frozen=True)
class ManifestRow:
    group: str
    tokens: int
    weight: int
    weighted_tokens: int
    proportion: float


@dataclass(frozen=True)
class MixManifest:
    rows: tuple[ManifestRow, ...]

    def __post_init__(self) -> None:
        total = sum(row.proportion for row in self.rows)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"proportions sum to {total}, expected 1")


def build_manifest(stats: Iterable[GroupStat]) -> MixManifest:
    """Proportion of the weighted token mass for each group, input order.

    proportion_g = w_g * tokens_g / sum(w * tokens).  Requires at least
    one group with positive tokens.
    """
    stats = list(stats)
    if not stats:
        raise ValueError("no groups given")
    names = [s.group for s in stats]
    if len(set(names)) != len(names):
        raise ValueError("group names must be unique")
    weighted = [(s, s.tokens * weight_of(s.bucket, s.source_class)) for s in stats]
    total = sum(w for _, w in weighted)
    if total == 0:
        raise ValueError("all groups have zero tokens")
    rows = tuple(
        ManifestRow(
            group=s.group,
            tokens=s.tokens,
            weight=weight_of(s.bucket, s.source_class),
            weighted_tokens=w,
            proportion=w / total,
        )
        for s, w in weighted
    )
    return MixManifest(rows=rows)


def sample_plan(manifest: MixManifest, target_tokens: int) -> dict[str, int]:
    """Integer token quota per group summing exactly to ``target_tokens``.

    Largest-remainder rounding: floor each proportional share, then hand
    the leftover tokens to the largest fractional parts (ties broken by
    manifest order).
    """
    if target_tokens < 0:
        raise ValueError(f"target_tokens must be >= 0, got {target_tokens}")
    shares = [row.proportion * target_tokens for row in manifest.rows]
    quotas = [int(share) for share in shares]
    leftover = target_tokens - sum(quotas)
    by_remainder = sorted(
        range(len(shares)), key=lambda i: shares[i] - quotas[i], reverse=True
    )
    for i in by_remainder[:leftover]:
        quotas[i] += 1
    return {row.group: quota for row, quota in zip(manifest.rows, quotas)}
