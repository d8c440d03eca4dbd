"""Text canonicalization and word shingles, shared by exact and near dedup.

Pure Python, so ``dedup-exact`` runs without numpy.
"""

from __future__ import annotations

import unicodedata

__all__ = ["DEFAULT_SHINGLE_SIZE", "normalize", "shingles"]

DEFAULT_SHINGLE_SIZE = 13


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
