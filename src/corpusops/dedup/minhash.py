"""MinHash fingerprinting of documents and LSH banding.

Text is canonicalized (:func:`~corpusops.dedup.text.normalize`), cut into
word 13-grams (:func:`~corpusops.dedup.text.shingles`), and sketched by
one-permutation MinHash into 128 bins (Li, Owen & Zhang, NeurIPS 2012)
with optimal densification of empty bins (Shrivastava, ICML 2017).  The
fraction of equal signature components estimates the Jaccard similarity
of the shingle sets (:func:`estimate_jaccard`).  :func:`band_keys` hashes
each band of a signature so that similar documents collide in at least
one bucket, and :func:`confirm_sketch` keeps the low 16 bits of each
bin (:data:`SKETCH_DTYPE`), enough to tell equal bins from unequal ones
(b-bit minwise hashing, Li & König, WWW 2010).

Input contract: texts are non-empty ``normalize`` output and shingles
non-empty runs of their words, so ``normalize`` alone decides where words
end.  Words are split at U+0020 only; an empty word (an empty text or
shingle, a leading, trailing or doubled space) raises ``ValueError``.

The hash family, with all arithmetic mod 2**64 and B the odd constant
``_POLY_BASE``:

* Word hash: the polynomial ``r = sum_i b_i * B**i`` over the word's
  UTF-8 bytes b_0, b_1, ..., then ``splitmix64(r + len * _LENGTH_KEY)``
  with ``len`` the word's byte count.  Words are the runs of bytes between
  single spaces, so a batch of texts is joined with ``" "``, encoded once
  and hashed with a few numpy calls: byte 0x20 never occurs inside a
  multi-byte UTF-8 sequence.  With prefix sums ``P[k] = sum_{i<k} b_i * B**i``
  over the whole batch, the word at bytes [s, e) has
  ``r = (P[e] - P[s]) * B**-s``; B is odd, hence invertible mod 2**64.
* Shingle hash: the same polynomial over the shingle's k word hashes,
  ``sum_j w_j * B**j``, computed by the same prefix trick, then
  ``splitmix64(value XOR shingle_key)``.
* Seed keys: ``shingle_key`` and ``probe_key`` are the first two outputs
  of the splitmix64 generator seeded with ``perm_seed``, that is
  ``splitmix64(s)`` and ``splitmix64(s + 0x9E3779B97F4A7C15)``.  A seed of
  2**64 or more is first folded down: while it has more than 64 bits, it
  becomes ``(s >> 64) XOR splitmix64(s mod 2**64)``.
* Bins: shingle hash h lands in bin ``h % num_perm``; each bin keeps its
  minimum.
* Densification: an empty bin copies the first non-empty bin along a
  probe sequence that depends only on the bin index and ``probe_key``;
  after 32 failed probes it takes the nearest non-empty bin to its right,
  circularly, so even a one-shingle document fills every bin.

The word hash is linear over the bytes and not collision-resistant
against an adversary: someone who knows B can craft words that collide.
MinHash needs only hash values that look random on natural text.

:func:`signature_matrix` sketches many documents in one set of numpy
calls; :func:`signature` runs the same kernel on one shingle set, so
``signature(shingles(normalize(t)), s)`` equals t's matrix row bit for
bit.  Signatures are deterministic given (normalized text, ``perm_seed``,
``num_perm``) and portable across platforms and processes.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from corpusops.dedup.text import DEFAULT_SHINGLE_SIZE

__all__ = [
    "SKETCH_DTYPE",
    "Signature",
    "band_keys",
    "confirm_sketch",
    "estimate_jaccard",
    "signature",
    "signature_matrix",
]

DEFAULT_NUM_PERMUTATIONS = 128

#: The low bits of each bin that confirmation compares, 16 of them.  Two
#: unequal bins agree there by chance with probability 2**-16, so across
#: 128 bins a pair gains a spurious equal bin with probability at most
#: about 0.2%.
SKETCH_DTYPE = np.dtype(np.uint16)

_MASK64 = (1 << 64) - 1
_POLY_BASE = 0xFF51AFD7ED558CCD  # odd, so every position counts and B**-1 exists
_INVERSE_BASE = pow(_POLY_BASE, -1, 1 << 64)
_LENGTH_KEY = np.uint64(0xC2B2AE3D27D4EB4F)
_GOLDEN = 0x9E3779B97F4A7C15
_PROBES = 32  # densification probes per empty bin before the circular fallback
_SPACE = 0x20


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


def _splitmix64(x: np.ndarray) -> np.ndarray:
    # Finalizer from the splitmix64 generator; all ops wrap mod 2**64.
    x = x + np.uint64(_GOLDEN)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def _span_polynomials(
    values: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """``sum_j values[s + j] * B**j`` over each span [s, e), mod 2**64.

    Prefix sums ``P[k] = sum_{i<k} values[i] * B**i`` give each span as
    ``(P[e] - P[s]) * B**-s``; the inverse power is ``B**(n-s) * B**-n``,
    so one table of forward powers serves both.
    """
    n = values.size
    powers = np.full(n + 1, _POLY_BASE, dtype=np.uint64)
    powers[0] = 1
    np.cumprod(powers, out=powers)
    prefix = np.zeros(n + 1, dtype=np.uint64)
    np.multiply(values, powers[:n], out=prefix[1:])
    np.cumsum(prefix[1:], out=prefix[1:])
    spans = (prefix[ends] - prefix[starts]) * powers[n - starts]
    return spans * np.uint64(pow(_INVERSE_BASE, n, 1 << 64))


def _word_spans(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(start, end) byte offsets of the runs between spaces, none of them empty."""
    spaces = np.flatnonzero(data == _SPACE)
    starts = np.concatenate(([0], spaces + 1))
    ends = np.concatenate((spaces, [data.size]))
    if (ends == starts).any():
        raise ValueError("empty word: expected non-empty, single-spaced normalize() output")
    return starts, ends


def _word_hashes(data: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Hash of each word [start, end) of the UTF-8 bytes ``data``."""
    raw = _span_polynomials(data, starts, ends)
    return _splitmix64(raw + (ends - starts).astype(np.uint64) * _LENGTH_KEY)


def _seed_keys(perm_seed: int) -> tuple[int, int]:
    """(shingle_key, probe_key): the first two splitmix64 outputs from the seed."""
    seed = operator.index(perm_seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    while seed > _MASK64:
        low = int(_splitmix64(np.array([seed & _MASK64], dtype=np.uint64))[0])
        seed = (seed >> 64) ^ low
    state = np.array([seed, (seed + _GOLDEN) & _MASK64], dtype=np.uint64)
    shingle_key, probe_key = _splitmix64(state).tolist()
    return shingle_key, probe_key


@lru_cache(maxsize=16)
def _hash_family(perm_seed: int, num_perm: int) -> tuple[np.uint64, np.ndarray]:
    """Shingle key and the (num_perm, _PROBES) densification probe table."""
    if num_perm < 1:
        raise ValueError(f"num_perm must be >= 1, got {num_perm}")
    shingle_key, probe_key = _seed_keys(perm_seed)
    cells = np.arange(num_perm * _PROBES, dtype=np.uint64)
    probes = _splitmix64(cells ^ np.uint64(probe_key)) % np.uint64(num_perm)
    probes = probes.astype(np.int64).reshape(num_perm, _PROBES)
    probes.flags.writeable = False
    return np.uint64(shingle_key), probes


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
    shingle_key, probes = _hash_family(perm_seed, num_perm)
    hashed = _splitmix64(
        _span_polynomials(word_hashes, starts, starts + widths) ^ shingle_key
    )
    cells = rows * num_perm + (hashed % np.uint64(num_perm)).astype(np.int64)
    matrix = np.full(num_rows * num_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
    np.minimum.at(matrix, cells, hashed)
    filled = np.zeros(num_rows * num_perm, dtype=bool)
    filled[cells] = True
    matrix = matrix.reshape(num_rows, num_perm)
    _densify(matrix, filled.reshape(num_rows, num_perm), probes)
    return matrix


def _encode(
    texts: Sequence[str],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """UTF-8 bytes of ``" ".join(texts)``, its word spans, and each text's byte count."""
    encoded = [text.encode("utf-8") for text in texts]
    data = np.frombuffer(b" ".join(encoded), dtype=np.uint8)
    lengths = np.fromiter(map(len, encoded), dtype=np.int64, count=len(encoded))
    return data, *_word_spans(data), lengths


def signature_matrix(
    texts: Sequence[str],
    perm_seed: int,
    num_perm: int = DEFAULT_NUM_PERMUTATIONS,
    shingle_size: int = DEFAULT_SHINGLE_SIZE,
) -> np.ndarray:
    """Signatures of many normalized texts: an N x ``num_perm`` uint64 matrix.

    Each text is non-empty ``normalize`` output, split into words at
    U+0020 only (the module's input contract).  Row i is the signature of
    ``shingles(texts[i], shingle_size)``, bit for bit equal to
    ``signature(shingles(texts[i]), perm_seed, num_perm)``.  The texts are
    joined and hashed as one byte string, so callers should pass thousands
    of words at a time.  Raises ``ValueError`` on an empty word.
    """
    if shingle_size < 1:
        raise ValueError(f"shingle size must be >= 1, got {shingle_size}")
    if not texts:
        return np.empty((0, num_perm), dtype=np.uint64)
    data, starts, ends, lengths = _encode(texts)
    # Word index of each text's first word: the spaces before its offset.
    offsets = np.cumsum(lengths + 1) - lengths - 1
    first_word = np.searchsorted(starts, offsets)
    words = np.diff(first_word, append=starts.size)
    # Texts shorter than the shingle size form one whole-text shingle.
    counts = np.maximum(words - shingle_size + 1, 1)
    first_shingle = np.cumsum(counts) - counts
    rows = np.repeat(np.arange(len(texts)), counts)
    shingle_starts = np.arange(int(counts.sum())) - first_shingle[rows] + first_word[rows]
    widths = np.minimum(words, shingle_size)[rows]
    word_hashes = _word_hashes(data, starts, ends)
    return _sketch(
        word_hashes, shingle_starts, widths, rows, len(texts), perm_seed, num_perm
    )


def signature(
    shingle_set: Iterable[str],
    perm_seed: int,
    num_perm: int = DEFAULT_NUM_PERMUTATIONS,
) -> Signature:
    """One-permutation MinHash signature of a shingle set.

    Each shingle is a non-empty run of words of ``normalize`` output, as
    :func:`~corpusops.dedup.text.shingles` makes (the module's input
    contract).  The shingles are joined and hashed like the texts of
    :func:`signature_matrix`, each shingle being one span of words.
    Raises ``ValueError`` on an empty shingle set (the document was empty
    after normalization; callers should drop it) or an empty word.
    """
    grams = list(set(shingle_set))
    if not grams:
        raise ValueError("cannot fingerprint an empty shingle set")
    data, starts, ends, _ = _encode(grams)
    widths = np.fromiter(
        (gram.count(" ") + 1 for gram in grams), dtype=np.int64, count=len(grams)
    )
    rows = np.zeros(len(grams), dtype=np.int64)
    word_hashes = _word_hashes(data, starts, ends)
    matrix = _sketch(
        word_hashes, np.cumsum(widths) - widths, widths, rows, 1, perm_seed, num_perm
    )
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


def band_keys(matrix: np.ndarray, rows: int) -> np.ndarray:
    """Bucket key of every (signature row, band): an N x (width / ``rows``) uint64 matrix.

    Key (i, j) is splitmix64 of the polynomial over the ``rows``
    components of band j, so equal sub-bands collide and unequal ones
    almost never do.  Buckets are compared within one band column.
    ``rows`` must divide the signature length.
    """
    width = matrix.shape[1]
    if rows < 1 or width % rows:
        raise ValueError(f"rows = {rows} does not divide signature of length {width}")
    bands = matrix.reshape(matrix.shape[0], width // rows, rows)
    acc = np.zeros(bands.shape[:2], dtype=np.uint64)
    for component in range(rows):
        acc = acc * np.uint64(_POLY_BASE) + bands[:, :, component]
    return _splitmix64(acc)


def confirm_sketch(matrix: np.ndarray) -> np.ndarray:
    """The low bits of every bin of signature rows, as :data:`SKETCH_DTYPE`.

    Confirmation counts the equal bins of two rows; on these the count is
    the full-width one, plus the rare unequal bins whose low bits agree.
    No correction for those chance agreements is applied.
    """
    return matrix.astype(SKETCH_DTYPE)
