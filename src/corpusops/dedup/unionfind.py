"""Union-find clustering of confirmed near-duplicate pairs.

Documents are the rows of one confirm sketch, the low 16 bits of every
signature bin (:func:`~corpusops.dedup.minhash.confirm_sketch`).
Candidate pairs (from LSH buckets) are confirmed by the fraction of equal
sketch bins, a Jaccard estimate, before being unioned, so banding false
positives cannot poison a cluster (:func:`link`).  Connected components
with two or more members become :class:`ClusterRecord`, each built once
with its representative; the output is invariant under any permutation
of the input pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from corpusops.corpus import Document
from corpusops.dedup.minhash import Signature, confirm_sketch

__all__ = [
    "ClusterRecord",
    "Ranking",
    "UnionFind",
    "choose_representative",
    "cluster",
    "link",
]

#: Candidate pairs confirmed per numpy call: the two gathered blocks of
#: sketch rows take 1 MB each at 128 bins.
CONFIRM_CHUNK = 1 << 12


class UnionFind:
    """Disjoint sets over the rows 0..size-1, joined many pairs per numpy call.

    A set's root is its smallest row.
    """

    def __init__(self, size: int) -> None:
        self._parent = np.arange(size)

    def roots(self) -> np.ndarray:
        """The root of every row (read-only use: it is the internal table)."""
        parent = self._parent
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand
        self._parent = parent
        return parent

    def union(self, a: np.ndarray, b: np.ndarray) -> None:
        """Join the sets of ``a[i]`` and ``b[i]`` for every i.

        Each pass hooks every root that a pair still crosses under the
        smallest root it pairs with, then compresses the paths.
        """
        while a.size:
            roots = self.roots()
            root_a, root_b = roots[a], roots[b]
            apart = root_a != root_b
            if not apart.any():
                return
            a, b, root_a, root_b = a[apart], b[apart], root_a[apart], root_b[apart]
            np.minimum.at(
                self._parent, np.maximum(root_a, root_b), np.minimum(root_a, root_b)
            )


def link(
    forest: UnionFind,
    sketch: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    confirm_threshold: float,
) -> int:
    """Union the row pairs (a[i], b[i]) whose sketch rows agree on enough bins.

    ``sketch`` holds :func:`~corpusops.dedup.minhash.confirm_sketch` rows.
    A pair is confirmed when the fraction of equal bins reaches
    ``confirm_threshold``.  Bins are compared on their low 16 bits only,
    so two bins that differ above them count as equal.  A pair whose rows
    already share a set is skipped, which leaves every set as it would
    be.  Returns the number of pairs compared.
    """
    compared = 0
    for start in range(0, a.size, CONFIRM_CHUNK):
        roots = forest.roots()
        chunk_a, chunk_b = a[start : start + CONFIRM_CHUNK], b[start : start + CONFIRM_CHUNK]
        apart = roots[chunk_a] != roots[chunk_b]
        chunk_a, chunk_b = chunk_a[apart], chunk_b[apart]
        similar = (sketch[chunk_a] == sketch[chunk_b]).mean(axis=1) >= confirm_threshold
        forest.union(chunk_a[similar], chunk_b[similar])
        compared += chunk_a.size
    return compared


@dataclass(frozen=True)
class ClusterRecord:
    """A near-duplicate cluster of two or more documents.

    ``members`` is sorted for stable serialization; ``representative`` is
    the member to keep, as :func:`choose_representative` picks it.
    """

    members: tuple[str, ...]
    representative: str

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError("emitted clusters must have >= 2 members")
        if self.representative not in self.members:
            raise ValueError("representative must be a cluster member")

    @property
    def size(self) -> int:
        return len(self.members)


def check_threshold(confirm_threshold: float) -> None:
    """Raise ``ValueError`` unless 0 < ``confirm_threshold`` < 1."""
    if not 0.0 < confirm_threshold < 1.0:
        raise ValueError(
            f"confirm_threshold must be in (0, 1), got {confirm_threshold}"
        )


def _preferred(ranks: Sequence[Ranking] | Sequence[Document]) -> str:
    """The id to keep of id-sorted members: curated, then newest, then first.

    ISO-8601 dates order as strings; a missing date ranks oldest.
    """
    return max(ranks, key=lambda rank: (rank.curated, rank.timestamp or "")).id


def cluster_records(forest: UnionFind, ranks: Sequence[Ranking]) -> list[ClusterRecord]:
    """Sets of two or more rows as records named and ranked by ``ranks``, by smallest id."""
    roots = forest.roots()
    joined = np.flatnonzero(roots != np.arange(roots.size))
    groups: dict[int, list[Ranking]] = {}
    for row, root in zip(joined.tolist(), roots[joined].tolist()):
        groups.setdefault(root, [ranks[root]]).append(ranks[row])
    records = []
    for group in groups.values():
        group.sort(key=lambda rank: rank.id)
        records.append(ClusterRecord(tuple(rank.id for rank in group), _preferred(group)))
    records.sort(key=lambda record: record.members[0])
    return records


def cluster(
    candidate_pairs: Iterable[tuple[str, str]],
    signatures: Mapping[str, Signature],
    confirm_threshold: float = 0.8,
) -> list[ClusterRecord]:
    """Union pairs whose estimated Jaccard clears the threshold.

    Pairs referencing ids without a signature are ignored, as are
    self-pairs.  Components of size >= 2 are returned sorted by smallest
    member id.  Every member ranks alike, so each record's representative
    is its smallest member id.  The signatures are cut to one confirm
    sketch (:func:`~corpusops.dedup.minhash.confirm_sketch`) and confirmed
    by :func:`link`, as :func:`~corpusops.dedup.near_dedup` does, so both
    join the same pairs.
    """
    check_threshold(confirm_threshold)
    ids = list(signatures)
    if len({signatures[doc_id].perm_seed for doc_id in ids}) > 1:
        raise ValueError("signatures from different perm seeds")
    row = {doc_id: i for i, doc_id in enumerate(ids)}
    a: list[int] = []
    b: list[int] = []
    for x, y in candidate_pairs:
        if x != y and x in row and y in row:
            a.append(row[x])
            b.append(row[y])
    if not a:
        return []
    sketch = confirm_sketch(np.stack([signatures[doc_id].values for doc_id in ids]))
    forest = UnionFind(len(ids))
    link(forest, sketch, np.array(a), np.array(b), confirm_threshold)
    return cluster_records(forest, [Ranking(doc_id, False, None) for doc_id in ids])


class Ranking(NamedTuple):
    """The fields of a document that :func:`choose_representative` reads."""

    id: str
    curated: bool
    timestamp: str | None


def choose_representative(
    cluster_record: ClusterRecord,
    lookup: Mapping[str, Document] | Mapping[str, Ranking],
) -> str:
    """Pick the member to keep: curated first, then newest, then smallest id.

    Documents without a timestamp rank as oldest.  Raises ``KeyError`` if
    any member id cannot be resolved.
    """
    return _preferred(sorted((lookup[m] for m in cluster_record.members), key=lambda d: d.id))
