"""Exact and near deduplication for document corpora.

Two stages, typically run in this order:

1. :func:`exact_dedup` keeps first occurrences by normalized-text digest
   using a Bloom filter, so memory stays constant in the stream length.
2. :func:`near_dedup` fingerprints documents with word-13-gram
   one-permutation MinHash signatures, many documents per numpy call
   (:func:`signature_matrix`), finds candidate pairs via LSH banding,
   confirms them on the low 16 bits of each signature bin, clusters with
   union-find, and keeps one representative per cluster (curated beats
   CommonCrawl, newer beats older).

Both stages read text through :func:`normalize`, the one place that
decides where words end; the MinHash layer takes its output as is and
splits words at single spaces.  :class:`NearDupConfig` holds the banding
shape.

The names below are loaded on first use (PEP 562), so exact dedup, which
needs only :mod:`~corpusops.dedup.bloom` and
:mod:`~corpusops.dedup.text`, runs without importing numpy.
"""

from importlib import import_module

_SUBMODULE = {
    "BloomConfig": "bloom",
    "BloomFilter": "bloom",
    "DedupStats": "bloom",
    "exact_dedup": "bloom",
    "ClusterRecord": "unionfind",
    "UnionFind": "unionfind",
    "choose_representative": "unionfind",
    "cluster": "unionfind",
    "Signature": "minhash",
    "signature": "minhash",
    "signature_matrix": "minhash",
    "NearDupConfig": "pipeline",
    "NearDupStats": "pipeline",
    "near_dedup": "pipeline",
    "normalize": "text",
    "shingles": "text",
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    submodule = _SUBMODULE.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{submodule}"), name)
    globals()[name] = value
    return value
