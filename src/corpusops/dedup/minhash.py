"""MinHash fingerprinting of documents and LSH banding.

Text is canonicalized (:func:`normalize`), cut into word 13-grams
(:func:`shingles`), and sketched by one-permutation MinHash into 128 bins
(Li, Owen & Zhang, NeurIPS 2012) with optimal densification of empty bins
(Shrivastava, ICML 2017).  The fraction of equal signature components
estimates the Jaccard similarity of the shingle sets
(:func:`estimate_jaccard`).  :func:`lsh_keys` splits a signature into band
keys so that similar documents collide in at least one bucket.

The hash family, with all arithmetic mod 2**64:

* Word hash: the 8-byte blake2b digest of the word's UTF-8 bytes, read
  little-endian.  Each distinct word is hashed once per batch.
* Shingle hash: the polynomial ``sum_j w_j * B**(k-1-j)`` over the k word
  hashes of the shingle, for a fixed odd base B, then splitmix64 of that
  value XOR a key drawn from ``perm_seed``.
* Bins: shingle hash h lands in bin ``h % num_perm``; each bin keeps its
  minimum.
* Densification: an empty bin copies the first non-empty bin along a
  probe sequence that depends only on the bin index and ``perm_seed``;
  after 32 failed probes it takes the nearest non-empty bin to its right,
  circularly, so even a one-shingle document fills every bin.

:func:`signature_matrix` sketches many documents in one set of numpy
calls; :func:`signature` runs the same kernel on one shingle set, so
``signature(shingles(normalize(t)), s)`` equals t's matrix row bit for
bit.  Signatures are deterministic given (normalized text, ``perm_seed``,
``num_perm``) and portable across platforms and processes.
"""

from __future__ import annotations

import hashlib
import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "LshConfig",
    "Signature",
    "estimate_jaccard",
    "lsh_keys",
    "normalize",
    "shingles",
    "signature",
    "signature_matrix",
]

DEFAULT_NUM_PERMUTATIONS = 128
DEFAULT_SHINGLE_SIZE = 13

_POLY_BASE = np.uint64(0xFF51AFD7ED558CCD)  # odd, so every word position counts
_PROBES = 32  # densification probes per empty bin before the circular fallback


class _PunctuationStripper(dict):
    """Lazy ``str.translate`` table deleting Unicode P* codepoints."""

    # Deleting via None rather than "" keeps CPython's ASCII fast path.
    def __missing__(self, codepoint: int) -> str | None:
        ch = chr(codepoint)
        out = None if unicodedata.category(ch).startswith("P") else ch
        self[codepoint] = out
        return out


_PUNCT_TABLE = _PunctuationStripper()


def normalize(text: str) -> str:
    """Canonicalize text before fingerprinting.

    Strips leading/trailing whitespace, lowercases, deletes punctuation
    (Unicode categories P*, removed rather than replaced by spaces), and
    collapses every whitespace run (spaces, newlines, tabs) to a single
    space.  Idempotent.
    """
    collapsed = text.strip().lower().translate(_PUNCT_TABLE)
    return " ".join(collapsed.split())


def shingles(normalized: str, n: int = DEFAULT_SHINGLE_SIZE) -> list[str]:
    """All contiguous word n-grams of normalized text.

    Documents shorter than ``n`` words yield a single whole-document
    shingle so they stay dedupable; empty text yields no shingles.
    """
    if n < 1:
        raise ValueError(f"shingle size must be >= 1, got {n}")
    words = normalized.split()
    if not words:
        return []
    if len(words) < n:
        return [" ".join(words)]
    return [" ".join(words[i : i + n]) for i in range(len(words) - n + 1)]


@dataclass(eq=False)
class Signature:
    """MinHash sketch: one minimum hash value per bin.

    ``values`` has dtype uint64 and fixed length (default 128); two
    signatures are comparable only when built with the same ``perm_seed``.
    """

    values: np.ndarray
    perm_seed: int

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.uint64)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("signature values must be a non-empty 1-D vector")

    def __len__(self) -> int:
        return int(self.values.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return self.perm_seed == other.perm_seed and np.array_equal(
            self.values, other.values
        )


def _word_hashes(words: Sequence[str]) -> np.ndarray:
    """8-byte blake2b of each word, hashing each distinct word once."""
    vocabulary = dict.fromkeys(words)
    blake2b = hashlib.blake2b
    digests = b"".join(
        [blake2b(word.encode("utf-8"), digest_size=8).digest() for word in vocabulary]
    )
    # Digests are read little-endian, whatever the platform's byte order.
    hashes = np.frombuffer(digests, dtype="<u8").astype(np.uint64)
    index = dict(zip(vocabulary, range(len(vocabulary))))
    ids = np.fromiter(map(index.__getitem__, words), dtype=np.intp, count=len(words))
    return hashes[ids]


def _splitmix64(x: np.ndarray) -> np.ndarray:
    # Finalizer from the splitmix64 generator; all ops wrap mod 2**64.
    with np.errstate(over="ignore"):
        x = x + np.uint64(0x9E3779B97F4A7C15)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def _polynomial(word_hashes: np.ndarray, starts: np.ndarray, width: int) -> np.ndarray:
    """Horner's rule over ``word_hashes[start : start + width]`` per start."""
    acc = np.zeros(starts.size, dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(width):
            acc = acc * _POLY_BASE + word_hashes[starts + j]
    return acc


@lru_cache(maxsize=16)
def _hash_family(perm_seed: int, num_perm: int) -> tuple[np.uint64, np.ndarray]:
    """Shingle key and the (num_perm, _PROBES) densification probe table."""
    shingle_key, probe_key = np.random.default_rng(perm_seed).integers(
        0, 2**64, size=2, dtype=np.uint64
    )
    cells = np.arange(num_perm * _PROBES, dtype=np.uint64)
    probes = (_splitmix64(cells ^ probe_key) % np.uint64(num_perm)).astype(np.int64)
    probes = probes.reshape(num_perm, _PROBES)
    probes.flags.writeable = False
    return shingle_key, probes


def _densify(matrix: np.ndarray, filled: np.ndarray, probes: np.ndarray) -> None:
    """Fill each empty bin in place from a non-empty bin of the same row.

    Empty bin ``b`` copies the first originally non-empty bin among
    ``probes[b, 0], probes[b, 1], ...``; the sequence depends only on
    ``b`` and the seed, so similar documents borrow from the same places.
    Bins still unresolved after the probes take the nearest non-empty bin
    to their right, circularly, which always exists in a non-empty row.
    """
    num_perm = matrix.shape[1]
    rows, bins = np.nonzero(~filled)
    source = np.empty_like(bins)
    pending = np.arange(rows.size)
    for attempt in range(probes.shape[1]):
        if not pending.size:
            break
        candidate = probes[bins[pending], attempt]
        hit = filled[rows[pending], candidate]
        source[pending[hit]] = candidate[hit]
        pending = pending[~hit]
    for step in range(1, num_perm):
        if not pending.size:
            break
        candidate = (bins[pending] + step) % num_perm
        hit = filled[rows[pending], candidate]
        source[pending[hit]] = candidate[hit]
        pending = pending[~hit]
    matrix[rows, bins] = matrix[rows, source]


def _sketch(
    word_hashes: np.ndarray,
    starts: np.ndarray,
    widths: np.ndarray,
    rows: np.ndarray,
    num_rows: int,
    perm_seed: int,
    num_perm: int,
) -> np.ndarray:
    """OPH signatures of shingles given as (start, width, row) spans of words.

    Every row must own at least one shingle.
    """
    if num_perm < 1:
        raise ValueError(f"num_perm must be >= 1, got {num_perm}")
    shingle_key, probes = _hash_family(perm_seed, num_perm)
    hashed = np.empty(starts.size, dtype=np.uint64)
    # A range, not np.unique, which imports numpy.ma (about 1.5 MB of RSS).
    for width in range(int(widths.min()), int(widths.max()) + 1):
        chosen = widths == width
        hashed[chosen] = _polynomial(word_hashes, starts[chosen], width)
    hashed = _splitmix64(hashed ^ shingle_key)

    cells = rows * num_perm + (hashed % np.uint64(num_perm)).astype(np.int64)
    matrix = np.full(num_rows * num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
    np.minimum.at(matrix, cells, hashed)
    filled = np.zeros(num_rows * num_perm, dtype=bool)
    filled[cells] = True
    matrix = matrix.reshape(num_rows, num_perm)
    _densify(matrix, filled.reshape(num_rows, num_perm), probes)
    return matrix


def signature_matrix(
    texts: Sequence[str],
    perm_seed: int,
    num_perm: int = DEFAULT_NUM_PERMUTATIONS,
    shingle_size: int = DEFAULT_SHINGLE_SIZE,
) -> np.ndarray:
    """Signatures of many normalized texts: an N x ``num_perm`` uint64 matrix.

    Row i is the signature of ``shingles(texts[i], shingle_size)``, bit for
    bit equal to ``signature(shingles(texts[i]), perm_seed, num_perm)``.
    Every word is hashed once per call and all shingles go through one
    set of numpy calls, so callers should pass thousands of words at a
    time.  Raises ``ValueError`` if a text has no words.
    """
    if shingle_size < 1:
        raise ValueError(f"shingle size must be >= 1, got {shingle_size}")
    word_lists = list(map(str.split, texts))
    lengths = np.fromiter(map(len, word_lists), dtype=np.int64, count=len(word_lists))
    if not lengths.all():
        raise ValueError("cannot fingerprint a text without words")
    # Texts shorter than the shingle size form one whole-text shingle.
    counts = np.maximum(lengths - shingle_size + 1, 1)
    first_shingle = np.cumsum(counts) - counts
    first_word = np.cumsum(lengths) - lengths
    rows = np.repeat(np.arange(len(texts)), counts)
    starts = np.arange(int(counts.sum())) - first_shingle[rows] + first_word[rows]
    widths = np.minimum(lengths, shingle_size)[rows]
    words = list(chain.from_iterable(word_lists))
    return _sketch(
        _word_hashes(words), starts, widths, rows, len(texts), perm_seed, num_perm
    )


def signature(
    shingle_set: Iterable[str],
    perm_seed: int,
    num_perm: int = DEFAULT_NUM_PERMUTATIONS,
) -> Signature:
    """One-permutation MinHash signature of a shingle set.

    Each shingle is split into words and hashed like a row of
    :func:`signature_matrix`.  Raises ``ValueError`` on an empty shingle
    set (the document was empty after normalization; callers should drop
    it).
    """
    word_lists = list(map(str.split, set(shingle_set)))
    if not word_lists:
        raise ValueError("cannot fingerprint an empty shingle set")
    widths = np.fromiter(map(len, word_lists), dtype=np.int64, count=len(word_lists))
    starts = np.cumsum(widths) - widths
    words = list(chain.from_iterable(word_lists))
    rows = np.zeros(len(word_lists), dtype=np.int64)
    matrix = _sketch(_word_hashes(words), starts, widths, rows, 1, perm_seed, num_perm)
    return Signature(values=matrix[0], perm_seed=perm_seed)


def estimate_jaccard(sig_a: Signature, sig_b: Signature) -> float:
    """Fraction of equal components: a Jaccard estimate in [0, 1]."""
    if len(sig_a) != len(sig_b):
        raise ValueError(
            f"signature lengths differ: {len(sig_a)} vs {len(sig_b)}"
        )
    if sig_a.perm_seed != sig_b.perm_seed:
        raise ValueError(
            f"signatures from different perm seeds: "
            f"{sig_a.perm_seed} vs {sig_b.perm_seed}"
        )
    return float(np.mean(sig_a.values == sig_b.values))


@dataclass(frozen=True)
class LshConfig:
    """Banding shape: ``bands * rows`` must equal the signature length."""

    bands: int = 16
    rows: int = 8

    def __post_init__(self) -> None:
        if self.bands < 1 or self.rows < 1:
            raise ValueError("bands and rows must be >= 1")


def lsh_keys(sig: Signature, config: LshConfig = LshConfig()) -> list[bytes]:
    """One stable bucket key per band.

    Key i hashes components [i*rows, (i+1)*rows) together with the band
    index, so equal sub-bands collide and distinct bands never do.
    """
    if config.bands * config.rows != len(sig):
        raise ValueError(
            f"bands*rows = {config.bands * config.rows} does not divide "
            f"signature of length {len(sig)}"
        )
    keys = []
    for band in range(config.bands):
        chunk = sig.values[band * config.rows : (band + 1) * config.rows]
        payload = band.to_bytes(4, "little") + chunk.tobytes()
        keys.append(hashlib.blake2b(payload, digest_size=16).digest())
    return keys
