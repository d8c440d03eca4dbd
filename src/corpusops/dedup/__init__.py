"""Exact and near deduplication for document corpora.

Two stages, typically run in this order:

1. :func:`exact_dedup` keeps first occurrences by normalized-text digest
   using a Bloom filter, so memory stays constant in the stream length.
2. :func:`near_dedup` fingerprints documents with word-13-gram
   one-permutation MinHash signatures, many documents per numpy call
   (:func:`signature_matrix`), finds candidate pairs via LSH banding,
   confirms them by signature similarity, clusters with union-find, and
   keeps one representative per cluster (curated beats CommonCrawl, newer
   beats older).
"""

from corpusops.dedup.bloom import BloomConfig, BloomFilter, DedupStats, exact_dedup
from corpusops.dedup.cluster import (
    ClusterRecord,
    UnionFind,
    choose_representative,
    cluster,
)
from corpusops.dedup.minhash import (
    LshConfig,
    Signature,
    estimate_jaccard,
    lsh_keys,
    normalize,
    shingles,
    signature,
    signature_matrix,
)
from corpusops.dedup.pipeline import NearDupConfig, near_dedup

__all__ = [
    "BloomConfig",
    "BloomFilter",
    "ClusterRecord",
    "DedupStats",
    "LshConfig",
    "NearDupConfig",
    "Signature",
    "UnionFind",
    "choose_representative",
    "cluster",
    "estimate_jaccard",
    "exact_dedup",
    "lsh_keys",
    "near_dedup",
    "normalize",
    "shingles",
    "signature",
    "signature_matrix",
]
