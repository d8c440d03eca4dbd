"""End-to-end near-deduplication over a document collection.

Fingerprints documents in batches of about :data:`BATCH_WORDS` words (one
signature-matrix call per batch), buckets signatures by LSH band keys,
turns co-bucketed documents into candidate pairs, confirms and clusters
them, then keeps one representative per cluster.  The representative's
``dup_count`` is set to its cluster size so that downstream mix weighting
can bucket it.

Running the pipeline on its own output at the same threshold yields zero
new clusters: survivors of a pass were pairwise rejected (or never
candidates), and signatures are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from corpusops.corpus import Document
from corpusops.dedup.cluster import ClusterRecord, choose_representative, cluster
from corpusops.dedup.minhash import (
    DEFAULT_NUM_PERMUTATIONS,
    DEFAULT_SHINGLE_SIZE,
    LshConfig,
    Signature,
    lsh_keys,
    normalize,
    signature_matrix,
)

__all__ = ["NearDupConfig", "near_dedup"]

#: Words fingerprinted per signature-matrix call.  Large enough to amortize
#: numpy's per-call cost, small enough that the batch's word hashes and
#: shingle arrays stay a few MB beside the documents themselves.
BATCH_WORDS = 1 << 14


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


def candidate_pairs_from_buckets(
    signatures: Mapping[str, Signature], config: NearDupConfig
) -> set[tuple[str, str]]:
    """All unordered id pairs sharing at least one LSH band bucket."""
    buckets: dict[bytes, list[str]] = {}
    for doc_id in sorted(signatures):
        for key in lsh_keys(signatures[doc_id], config.lsh):
            buckets.setdefault(key, []).append(doc_id)

    pairs: set[tuple[str, str]] = set()
    for members in buckets.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pairs.add((members[i], members[j]))
    return pairs


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
) -> dict[str, Signature]:
    """Signatures of all documents with at least one word after normalization.

    Documents are sketched in batches of about :data:`BATCH_WORDS` words;
    the rows of one ``len(documents) x num_perm`` matrix back the returned
    signatures, and batch boundaries do not change any value.
    """
    matrix = np.empty((len(documents), config.num_perm), dtype=np.uint64)
    ids: list[str] = []
    for batch_ids, texts in _batches(documents):
        matrix[len(ids) : len(ids) + len(texts)] = signature_matrix(
            texts, config.perm_seed, config.num_perm, config.shingle_size
        )
        ids += batch_ids
    return {
        doc_id: Signature(values=row, perm_seed=config.perm_seed)
        for doc_id, row in zip(ids, matrix)
    }


def near_dedup(
    documents: Iterable[Document], config: NearDupConfig = NearDupConfig()
) -> tuple[list[Document], list[ClusterRecord]]:
    """Drop near-duplicates, keeping one representative per cluster.

    Returns (kept documents in input order, cluster records).  Documents
    that are empty after normalization cannot be fingerprinted and pass
    through untouched.  Kept cluster representatives carry
    ``dup_count = cluster size``.
    """
    docs = list(documents)
    by_id = {doc.id: doc for doc in docs}
    if len(by_id) != len(docs):
        raise ValueError("document ids must be unique within one dedup run")

    signatures = fingerprint(docs, config)
    pairs = candidate_pairs_from_buckets(signatures, config)
    clusters = cluster(pairs, signatures, config.confirm_threshold)

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
