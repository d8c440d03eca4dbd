"""End-to-end near-deduplication over a document collection.

Fingerprints documents in batches of about :data:`BATCH_WORDS` words into
the rows of one signature matrix, hashes every (row, band) into a bucket
key, sorts each band's key column into buckets, confirms co-bucketed rows
on the matrix and unions them, then keeps one representative per cluster.
No per-document object is built on the way.  The representative's
``dup_count`` is set to its cluster size so that downstream mix weighting
can bucket it.

Running the pipeline on its own output at the same threshold yields zero
new clusters: survivors of a pass were pairwise rejected (or never
candidates), and signatures are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from corpusops.corpus import Document
from corpusops.dedup.minhash import (
    DEFAULT_NUM_PERMUTATIONS,
    LshConfig,
    Signature,
    band_keys,
    signature_matrix,
)
from corpusops.dedup.text import DEFAULT_SHINGLE_SIZE, normalize
from corpusops.dedup.unionfind import (
    ClusterRecord,
    UnionFind,
    check_threshold,
    choose_representative,
    cluster_records,
    link,
)

__all__ = ["NearDupConfig", "NearDupStats", "near_dedup"]

#: Words fingerprinted per signature-matrix call.  Large enough to amortize
#: numpy's per-call cost, small enough that the batch's byte, word and
#: shingle arrays stay under a MB beside the documents themselves.  On the
#: benchmark's ``web-dedup`` input (1,159 documents, 2.6 MB of normalized
#: text), ``dedup-near`` peaked at 35.2, 35.3, 35.2, 35.9 and 37.4 MB of RSS
#: with 1<<10 ... 1<<14 words per batch (2-core x86 host); 1<<10 ran about
#: 10% slower, the others at the same speed.
BATCH_WORDS = 1 << 12


@dataclass(frozen=True)
class NearDupConfig:
    num_perm: int = DEFAULT_NUM_PERMUTATIONS
    shingle_size: int = DEFAULT_SHINGLE_SIZE
    bands: int = 16
    rows: int = 8
    confirm_threshold: float = 0.8
    perm_seed: int = 0

    def __post_init__(self) -> None:
        if self.bands * self.rows != self.num_perm:
            raise ValueError(
                f"bands*rows = {self.bands * self.rows} must equal "
                f"num_perm = {self.num_perm}"
            )

    @property
    def lsh(self) -> LshConfig:
        return LshConfig(bands=self.bands, rows=self.rows)


@dataclass
class NearDupStats:
    """Counters of one :func:`near_dedup` run."""

    largest_bucket: int = 0  # most documents sharing one band key
    confirmations: int = 0  # candidate pairs compared on their signatures


def _buckets(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows sharing a key: (their rows, bucket sizes), over buckets of two or more.

    Each bucket's rows are contiguous and ascending.
    """
    order = np.argsort(keys, kind="stable")
    ranked = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], ranked[1:] != ranked[:-1])))
    sizes = np.diff(starts, append=keys.size)
    shared = sizes >= 2
    return order[np.repeat(shared, sizes)], sizes[shared]


def candidate_pairs_from_buckets(
    signatures: Mapping[str, Signature], config: NearDupConfig
) -> set[tuple[str, str]]:
    """All unordered id pairs sharing at least one LSH band bucket.

    Each pair is ordered (smaller id, larger id).  Buckets come from
    :func:`~corpusops.dedup.minhash.band_keys`, as in :func:`near_dedup`.
    """
    ids = sorted(signatures)
    if not ids:
        return set()
    keys = band_keys(np.stack([signatures[doc_id].values for doc_id in ids]), config.lsh)
    pairs: set[tuple[str, str]] = set()
    for column in keys.T:
        rows, sizes = _buckets(column)
        for bucket in np.split(rows, np.cumsum(sizes)[:-1]):
            pairs.update(combinations([ids[row] for row in bucket.tolist()], 2))
    return pairs


def _link_buckets(
    forest: UnionFind,
    matrix: np.ndarray,
    keys: np.ndarray,
    confirm_threshold: float,
    stats: NearDupStats,
) -> None:
    """Confirm and union the rows that share a key in one band column.

    Round by round, each bucket's first row is compared with the rest
    and then dropped, so every pair in a bucket is compared unless its
    rows already share a set; a bucket whose rows all share one set
    retires.  N identical documents take N - 1 comparisons.
    """
    rows, sizes = _buckets(keys)
    stats.largest_bucket = max(stats.largest_bucket, int(sizes.max(initial=0)))
    while rows.size:
        starts = np.cumsum(sizes) - sizes
        roots = forest.roots()[rows]
        apart = np.minimum.reduceat(roots, starts) != np.maximum.reduceat(roots, starts)
        rows, sizes = rows[np.repeat(apart, sizes)], sizes[apart]
        if not rows.size:
            break
        starts = np.cumsum(sizes) - sizes
        rest = np.ones(rows.size, dtype=bool)
        rest[starts] = False
        pivots = np.repeat(rows[starts], sizes)[rest]
        rows, sizes = rows[rest], sizes - 1
        stats.confirmations += link(forest, matrix, pivots, rows, confirm_threshold)
        shared = sizes >= 2
        rows, sizes = rows[np.repeat(shared, sizes)], sizes[shared]


def _batches(documents: Iterable[Document]) -> Iterator[tuple[list[str], list[str]]]:
    """(ids, normalized texts) of non-empty documents, ~BATCH_WORDS words each."""
    ids: list[str] = []
    texts: list[str] = []
    words = 0
    for doc in documents:
        text = normalize(doc.text)
        if not text:
            continue
        ids.append(doc.id)
        texts.append(text)
        words += text.count(" ") + 1  # normalized text: single spaces
        if words >= BATCH_WORDS:
            yield ids, texts
            ids, texts, words = [], [], 0
    if ids:
        yield ids, texts


def fingerprint(
    documents: Sequence[Document], config: NearDupConfig
) -> tuple[list[str], np.ndarray]:
    """Ids and signature rows of the documents with words after normalization.

    Documents are sketched in batches of about :data:`BATCH_WORDS` words
    into one ``len(ids) x num_perm`` matrix; batch boundaries do not
    change any value.
    """
    matrix = np.empty((len(documents), config.num_perm), dtype=np.uint64)
    ids: list[str] = []
    for batch_ids, texts in _batches(documents):
        matrix[len(ids) : len(ids) + len(texts)] = signature_matrix(
            texts, config.perm_seed, config.num_perm, config.shingle_size
        )
        ids += batch_ids
    return ids, matrix[: len(ids)]


def near_dedup(
    documents: Iterable[Document],
    config: NearDupConfig = NearDupConfig(),
    stats: NearDupStats | None = None,
) -> tuple[list[Document], list[ClusterRecord]]:
    """Drop near-duplicates, keeping one representative per cluster.

    Returns (kept documents in input order, cluster records).  Documents
    that are empty after normalization cannot be fingerprinted and pass
    through untouched.  Kept cluster representatives carry
    ``dup_count = cluster size``.  ``stats``, when given, receives the
    bucket and confirmation counters.
    """
    check_threshold(config.confirm_threshold)
    docs = list(documents)
    by_id = {doc.id: doc for doc in docs}
    if len(by_id) != len(docs):
        raise ValueError("document ids must be unique within one dedup run")

    stats = NearDupStats() if stats is None else stats
    ids, matrix = fingerprint(docs, config)
    forest = UnionFind(len(ids))
    for keys in band_keys(matrix, config.lsh).T:
        _link_buckets(forest, matrix, keys, config.confirm_threshold, stats)
    clusters = cluster_records(forest, ids)

    final_clusters = []
    drop: set[str] = set()
    promote: dict[str, int] = {}
    for record in clusters:
        representative = choose_representative(record, by_id)
        final_clusters.append(replace(record, representative=representative))
        promote[representative] = record.size
        drop.update(m for m in record.members if m != representative)

    kept = []
    for doc in docs:
        if doc.id in drop:
            continue
        if doc.id in promote:
            doc = replace(doc, dup_count=promote[doc.id])
        kept.append(doc)
    return kept, final_clusters
