"""Online best-fit packing of documents into fixed-length sequences.

Each arriving document goes into the open bin with the least remaining
room that still fits it.  If nothing fits, a new bin opens; when the open
table is full, the fullest bin is sealed first (emitted with padding).
Documents longer than the sequence capacity are skipped and counted, and
no document is ever split, so truncation is zero by construction.

The open-bin table is bounded (``max_open_bins``), keeping memory constant
for arbitrarily long streams.  It is one list of ``[room, opening order,
entries]`` kept sorted, so each placement is a bisect, a pop and an insort.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "PackInput",
    "PackStats",
    "PackedSequence",
    "pack_online",
]


@dataclass(frozen=True)
class PackInput:
    """A document to pack: opaque id plus its length in tokens."""

    id: str
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"length must be >= 1, got {self.length}")


@dataclass(frozen=True)
class PackedSequence:
    """One assembled training sequence; entries are whole documents."""

    capacity: int
    entries: tuple[tuple[str, int], ...]
    padding: int

    def __post_init__(self) -> None:
        used = sum(length for _, length in self.entries)
        if used + self.padding != self.capacity:
            raise ValueError(
                f"entries ({used}) + padding ({self.padding}) != capacity "
                f"({self.capacity})"
            )
        if self.padding < 0:
            raise ValueError("padding must be >= 0")


@dataclass
class PackStats:
    sequences: int = 0
    docs_packed: int = 0
    docs_skipped: int = 0
    padding_tokens: int = 0
    capacity: int = 0

    @property
    def truncation_ratio(self) -> float:
        return 0.0  # no document is ever split

    @property
    def padding_ratio(self) -> float:
        if self.sequences == 0:
            return 0.0
        return self.padding_tokens / (self.sequences * self.capacity)


def pack_online(
    inputs: Iterable[PackInput],
    capacity: int,
    max_open_bins: int = 64,
) -> tuple[Iterator[PackedSequence], PackStats]:
    """Pack a document stream into sequences of ``capacity`` tokens.

    Returns a lazy sequence iterator plus live stats (final once the
    iterator is exhausted).  Deterministic: ties on remaining capacity are
    broken toward the earliest-opened bin, and end-of-stream seals the
    remaining bins in opening order.
    """
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")
    if max_open_bins < 1:
        raise ValueError(f"max_open_bins must be >= 1, got {max_open_bins}")

    stats = PackStats(capacity=capacity)

    def generate() -> Iterator[PackedSequence]:
        # Open bins as [room, opening order, entries], sorted; (room, order)
        # is unique, so two bins never compare their entries.
        bins: list[list] = []
        opened = 0

        def seal(room: int, entries: list[tuple[str, int]]) -> PackedSequence:
            stats.sequences += 1
            stats.padding_tokens += room
            return PackedSequence(
                capacity=capacity, entries=tuple(entries), padding=room
            )

        for item in inputs:
            if item.length > capacity:
                stats.docs_skipped += 1
                continue
            # Best fit: least room >= length; ties -> oldest bin.
            i = bisect_left(bins, [item.length, -1])
            if i < len(bins):
                room, order, entries = bins.pop(i)
            else:
                if len(bins) >= max_open_bins:
                    room, _, entries = bins.pop(0)  # fullest, oldest on ties
                    yield seal(room, entries)
                room, order, entries = capacity, opened, []
                opened += 1
            entries.append((item.id, item.length))
            stats.docs_packed += 1
            room -= item.length
            if room == 0:
                yield seal(room, entries)
            else:
                insort(bins, [room, order, entries])

        for room, _, entries in sorted(bins, key=lambda b: b[1]):
            yield seal(room, entries)

    return generate(), stats
