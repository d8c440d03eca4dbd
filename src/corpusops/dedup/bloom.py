"""Bloom-filter exact deduplication with constant memory.

The filter is sized from (capacity, target false-positive rate) using the
standard optimal formulas; membership positions come from double hashing
of a 16-byte blake2b digest.  :func:`exact_dedup` streams documents and
keeps the first occurrence of each normalized-text digest.  False
positives drop a unique document at most at the configured rate while
inserts stay within capacity; past it the rate climbs, and
``DedupStats.live_fpr`` reports the rate the final fill gives.  False
negatives cannot occur, so a true duplicate is never kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Protocol, TypeVar

# CPython's built-in blake2b, the object hashlib.blake2b names: importing
# hashlib would also load OpenSSL's libcrypto through _hashlib.
from _blake2 import blake2b

from corpusops.dedup.text import normalize

__all__ = ["BloomConfig", "BloomFilter", "DedupStats", "exact_dedup"]


class _Texted(Protocol):
    @property
    def text(self) -> str: ...


_T = TypeVar("_T", bound=_Texted)


@dataclass(frozen=True)
class BloomConfig:
    """Expected insert count and acceptable false-positive probability."""

    capacity: int
    target_fpr: float

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {self.capacity}")
        if not 0.0 < self.target_fpr < 1.0:
            raise ValueError(
                f"target_fpr must be in (0, 1), got {self.target_fpr}"
            )

    @property
    def num_bits(self) -> int:
        """Optimal bit-array size m = ceil(-n ln p / (ln 2)^2)."""
        return math.ceil(
            -self.capacity * math.log(self.target_fpr) / (math.log(2) ** 2)
        )

    @property
    def num_hashes(self) -> int:
        """Optimal hash count k = round((m / n) ln 2), at least 1."""
        return max(1, round(self.num_bits / self.capacity * math.log(2)))


class BloomFilter:
    """Probabilistic membership set over byte strings."""

    def __init__(self, config: BloomConfig):
        self.config = config
        self.num_bits = config.num_bits
        self.num_hashes = config.num_hashes
        self._bits = bytearray((self.num_bits + 7) // 8)
        self.inserted = 0

    @property
    def live_fpr(self) -> float:
        """False-positive rate at the current fill, (1 - e^(-kn/m))^k."""
        k, m = self.num_hashes, self.num_bits
        return (1.0 - math.exp(-k * self.inserted / m)) ** k

    def _positions(self, item: bytes) -> Iterator[int]:
        digest = blake2b(item, digest_size=16).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1
        for i in range(self.num_hashes):
            yield (h1 + i * h2) % self.num_bits

    def __contains__(self, item: bytes) -> bool:
        return all(
            self._bits[pos >> 3] & (1 << (pos & 7)) for pos in self._positions(item)
        )

    def add(self, item: bytes) -> bool:
        """Test-and-set in one pass; True iff the item was (probably) new.

        Only a new item counts in ``inserted``.
        """
        new = False
        for pos in self._positions(item):
            mask = 1 << (pos & 7)
            if not self._bits[pos >> 3] & mask:
                new = True
                self._bits[pos >> 3] |= mask
        if new:
            self.inserted += 1
        return new


@dataclass
class DedupStats:
    """Streaming counters; final once the kept stream is fully consumed.

    Every kept document is one filter insert, so ``seen - dropped`` above
    the capacity means the filter overflowed.
    """

    seen: int = 0
    dropped: int = 0
    live_fpr: float = 0.0


def content_digest(text: str) -> bytes:
    """Digest of the normalized text, the identity used for exact dedup."""
    return blake2b(normalize(text).encode("utf-8"), digest_size=16).digest()


def exact_dedup(
    documents: Iterable[_T], config: BloomConfig
) -> tuple[Iterator[_T], DedupStats]:
    """Keep first occurrences by normalized-text digest.

    ``documents`` are :class:`~corpusops.corpus.Document` objects, or any
    items with a ``text``, which come out unchanged.  Returns a lazy
    kept-item iterator plus live stats; the counters and
    ``stats.live_fpr`` are final only after the iterator is exhausted.
    Memory usage is the Bloom bit array, constant in stream length.
    """
    stats = DedupStats()
    bloom = BloomFilter(config)

    def generate() -> Iterator[_T]:
        for doc in documents:
            stats.seen += 1
            if bloom.add(content_digest(doc.text)):
                yield doc
            else:
                stats.dropped += 1
        stats.live_fpr = bloom.live_fpr

    return generate(), stats
