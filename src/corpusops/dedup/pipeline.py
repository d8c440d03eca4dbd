"""End-to-end near-deduplication over a document collection.

Fingerprints documents in batches of about :data:`BATCH_WORDS` words.
Each batch's signature rows are hashed into one bucket key per band and
cut to their low 16 bits (:func:`~corpusops.dedup.minhash.confirm_sketch`);
only those two arrays are kept, 384 bytes per document at 16 bands of 8
rows.  Sorting each band's key column forms the buckets; co-bucketed rows
are confirmed on the sketch and unioned, then one representative per
cluster is kept.  No per-document signature object, and no full-width
signature matrix, is built on the way.  The representative's
``dup_count`` is set to its cluster size so that downstream mix
weighting can bucket it.

:func:`near_clusters` is that path from documents to clusters, and
:func:`near_dedup` and the ``dedup-near`` command both run it.  It
streams: it takes any iterable of documents, with no count in advance,
and of each document it keeps one row of :func:`fingerprint`'s result,
its keys, its sketch and the ``id``, ``curated`` and ``timestamp`` that
pick a representative.  The key and sketch arrays grow batch by batch as
the documents are read, so a caller that reads its documents from a file
once to cluster them and once more to write the kept ones holds no text
beyond the current batch.

Running the pipeline on its own output at the same threshold yields zero
new clusters: survivors of a pass were pairwise rejected (or never
candidates), and signatures are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import ClassVar, Iterable, Iterator, Mapping

import numpy as np

from corpusops.corpus import Document
from corpusops.dedup.minhash import (
    DEFAULT_NUM_PERMUTATIONS,
    SKETCH_DTYPE,
    Signature,
    band_keys,
    confirm_sketch,
    signature_matrix,
)
from corpusops.dedup.text import DEFAULT_SHINGLE_SIZE, normalize
from corpusops.dedup.unionfind import (
    ClusterRecord,
    Ranking,
    UnionFind,
    check_threshold,
    cluster_records,
    link,
)

__all__ = [
    "NearDupConfig",
    "NearDupStats",
    "cluster_outcome",
    "near_clusters",
    "near_dedup",
]

#: Words fingerprinted per signature-matrix call.  Large enough to amortize
#: numpy's per-call cost, small enough that the batch's byte, word and
#: shingle arrays stay under a MB beside the documents themselves.  On the
#: benchmark's ``web-dedup`` corpus at seed 1 (1,200 documents, 2.9 MB),
#: ``dedup-near`` peaked at 31.4-31.7, 31.4-31.6, 31.3-31.6, 32.1-32.2 and
#: 33.8-33.9 MB of RSS with 1<<10 ... 1<<14 words per batch (three runs
#: each, 2-core x86 host); 1<<10 took 0.52-0.53 s a run, the others
#: 0.31-0.46 s.
BATCH_WORDS = 1 << 12


@dataclass(frozen=True)
class NearDupConfig:
    """Near-dedup settings, checked on construction, before any input is read."""

    num_perm: int = DEFAULT_NUM_PERMUTATIONS
    bands: int = 16
    rows: int = 8
    confirm_threshold: float = 0.8
    perm_seed: int = 0
    shingle_size: ClassVar[int] = DEFAULT_SHINGLE_SIZE  # words per shingle

    def __post_init__(self) -> None:
        if self.bands < 1 or self.rows < 1:
            raise ValueError("bands and rows must be >= 1")
        if self.bands * self.rows != self.num_perm:
            raise ValueError(
                f"bands*rows = {self.bands * self.rows} must equal "
                f"num_perm = {self.num_perm}"
            )
        check_threshold(self.confirm_threshold)


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
    keys = band_keys(np.stack([signatures[doc_id].values for doc_id in ids]), config.rows)
    pairs: set[tuple[str, str]] = set()
    for column in keys.T:
        rows, sizes = _buckets(column)
        for bucket in np.split(rows, np.cumsum(sizes)[:-1]):
            pairs.update(combinations([ids[row] for row in bucket.tolist()], 2))
    return pairs


def _link_buckets(
    forest: UnionFind,
    sketch: np.ndarray,
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
        stats.confirmations += link(forest, sketch, pivots, rows, confirm_threshold)
        shared = sizes >= 2
        rows, sizes = rows[np.repeat(shared, sizes)], sizes[shared]


def _batches(documents: Iterable[Document]) -> Iterator[tuple[list[Ranking], list[str]]]:
    """(rankings, normalized texts) of non-empty documents, ~BATCH_WORDS words each."""
    ranks: list[Ranking] = []
    texts: list[str] = []
    words = 0
    for doc in documents:
        text = normalize(doc.text)
        if not text:
            continue
        ranks.append(Ranking(doc.id, doc.curated, doc.timestamp))
        texts.append(text)
        words += text.count(" ") + 1  # normalized text: single spaces
        if words >= BATCH_WORDS:
            yield ranks, texts
            ranks, texts, words = [], [], 0
    if ranks:
        yield ranks, texts


def fingerprint(
    documents: Iterable[Document], config: NearDupConfig
) -> tuple[list[Ranking], np.ndarray, np.ndarray]:
    """(rankings, band keys, confirm sketch) of the documents with words after normalization.

    Row ``i`` of all three is the ``i``-th such document: its ``Ranking``,
    its ``bands`` uint64 keys and its ``num_perm`` uint16 bins.  Documents
    are read once, as a stream of any length, and sketched in batches of
    about :data:`BATCH_WORDS` words.  Each batch's signature rows give its
    key and sketch rows and are then dropped, so batch boundaries change no
    value and the full-width signature matrix is never held.  The key and
    sketch rows are appended to two growing byte buffers, and the arrays
    returned are views of them; only the current batch's texts are held.
    """
    keys, sketch = bytearray(), bytearray()
    ranks: list[Ranking] = []
    for batch, texts in _batches(documents):
        block = signature_matrix(texts, config.perm_seed, config.num_perm, config.shingle_size)
        # bytearray += ndarray would broadcast; append the rows' bytes.
        keys += band_keys(block, config.rows).tobytes()
        sketch += confirm_sketch(block).tobytes()
        ranks += batch
    return (
        ranks,
        np.frombuffer(keys, np.uint64).reshape(-1, config.bands),
        np.frombuffer(sketch, SKETCH_DTYPE).reshape(-1, config.num_perm),
    )


def near_clusters(
    documents: Iterable[Document],
    config: NearDupConfig = NearDupConfig(),
    stats: NearDupStats | None = None,
) -> list[ClusterRecord]:
    """Near-duplicate clusters of the documents, each with its representative.

    Document ids must be unique.  ``documents`` is read once, as a stream
    of any length (a generator will do), by :func:`fingerprint`.  Clusters
    come sorted by smallest member id; ``stats``, when given, receives the
    bucket and confirmation counters.
    """
    stats = NearDupStats() if stats is None else stats
    ranks, keys, sketch = fingerprint(documents, config)
    forest = UnionFind(len(ranks))
    for column in keys.T:
        _link_buckets(forest, sketch, column, config.confirm_threshold, stats)
    return cluster_records(forest, ranks)


def cluster_outcome(clusters: Iterable[ClusterRecord]) -> tuple[set[str], dict[str, int]]:
    """(ids to drop, representative id -> its ``dup_count``, the cluster size)."""
    drop: set[str] = set()
    promote: dict[str, int] = {}
    for record in clusters:
        promote[record.representative] = record.size
        drop.update(m for m in record.members if m != record.representative)
    return drop, promote


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
    docs = list(documents)
    if len({doc.id for doc in docs}) != len(docs):
        raise ValueError("document ids must be unique within one dedup run")
    clusters = near_clusters(docs, config, stats)
    drop, promote = cluster_outcome(clusters)
    kept = []
    for doc in docs:
        if doc.id in drop:
            continue
        if doc.id in promote:
            doc = replace(doc, dup_count=promote[doc.id])
        kept.append(doc)
    return kept, clusters
