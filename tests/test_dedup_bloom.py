import _blake2
import hashlib
import math
import random

import pytest

from corpusops.corpus import Document
from corpusops.dedup import BloomConfig, BloomFilter, bloom, exact_dedup


def doc(i, text):
    return Document(id=f"d{i}", text=text)


class TestBloomConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BloomConfig(capacity=0, target_fpr=0.01)
        with pytest.raises(ValueError):
            BloomConfig(capacity=10, target_fpr=1.0)

    def test_standard_sizing(self):
        config = BloomConfig(capacity=1000, target_fpr=0.001)
        # m = ceil(-n ln p / ln(2)^2) ~= 14.38 bits per item, k ~= 10.
        assert config.num_bits == 14378
        assert config.num_hashes == 10


class TestBloomFilter:
    def test_no_false_negatives(self):
        bloom = BloomFilter(BloomConfig(capacity=500, target_fpr=0.01))
        items = [f"item-{i}".encode() for i in range(500)]
        for item in items:
            bloom.add(item)
        assert all(item in bloom for item in items)

    def test_add_if_new(self):
        bloom = BloomFilter(BloomConfig(capacity=100, target_fpr=0.01))
        assert bloom.add(b"x") is True
        assert bloom.add(b"x") is False
        assert bloom.inserted == 1

    def test_false_positive_rate_near_target(self):
        # Statistical check against an exact set: fill to capacity, then
        # probe disjoint keys; measured FPR should stay within 2x target.
        config = BloomConfig(capacity=20_000, target_fpr=0.001)
        bloom = BloomFilter(config)
        for i in range(20_000):
            bloom.add(f"in-{i}".encode())
        false_positives = sum(
            1 for i in range(20_000) if f"out-{i}".encode() in bloom
        )
        assert false_positives / 20_000 <= 0.002


class TestExactDedup:
    def test_keeps_first_occurrence(self):
        stream = [doc(0, "A"), doc(1, "A"), doc(2, "B")]
        kept, stats = exact_dedup(stream, BloomConfig(capacity=10, target_fpr=0.001))
        kept = list(kept)
        assert [d.id for d in kept] == ["d0", "d2"]
        assert stats.seen == 3
        assert stats.dropped == 1

    def test_empty_stream(self):
        kept, stats = exact_dedup([], BloomConfig(capacity=1, target_fpr=0.5))
        assert list(kept) == []
        assert (stats.seen, stats.dropped) == (0, 0)

    def test_normalized_text_is_the_identity(self):
        stream = [doc(0, "Hello,  World"), doc(1, "hello world"), doc(2, "HELLO WORLD!")]
        kept, stats = exact_dedup(stream, BloomConfig(capacity=10, target_fpr=0.001))
        assert [d.id for d in list(kept)] == ["d0"]
        assert stats.dropped == 2

    def test_first_occurrence_never_dropped_in_favor_of_a_later_one(self):
        # A false positive can drop a whole duplicate group, but a kept doc
        # is always its group's first occurrence: once any copy is seen,
        # every later copy probes all-set and drops.
        stream = [doc(i, f"text {i % 50}") for i in range(200)]
        kept, stats = exact_dedup(stream, BloomConfig(capacity=50, target_fpr=0.01))
        kept = list(kept)
        texts = [d.text for d in kept]
        assert len(texts) == len(set(texts))
        first_occurrence = {f"text {n}": f"d{n}" for n in range(50)}
        for document in kept:
            assert document.id == first_occurrence[document.text]
        assert stats.seen == 200
        assert stats.dropped == 200 - len(kept)

    def test_all_unique_drop_rate_within_twice_fpr(self):
        rng = random.Random(7)
        stream = (
            doc(i, " ".join(str(rng.randrange(10**9)) for _ in range(12)))
            for i in range(10_000)
        )
        kept, stats = exact_dedup(
            stream, BloomConfig(capacity=10_000, target_fpr=0.001)
        )
        n_kept = sum(1 for _ in kept)
        assert stats.seen == 10_000
        drop_rate = stats.dropped / stats.seen
        assert drop_rate <= 0.002
        assert n_kept + stats.dropped == 10_000

    def test_live_fpr_past_capacity(self):
        config = BloomConfig(capacity=3, target_fpr=0.01)
        stream = [doc(i, f"text {i}") for i in range(8)] + [doc(8, "text 0")]
        kept, stats = exact_dedup(stream, config)
        assert [d.id for d in kept] == [f"d{i}" for i in range(8)]
        assert stats.seen - stats.dropped == 8
        k, m = config.num_hashes, config.num_bits
        assert stats.live_fpr == pytest.approx((1 - math.exp(-k * 8 / m)) ** k)
        assert stats.live_fpr > config.target_fpr


def test_digest_is_hashlibs_blake2b():
    # bloom takes blake2b from _blake2 so dedup-exact never loads OpenSSL;
    # this is the very function hashlib names, so digests cannot differ.
    assert bloom.blake2b is hashlib.blake2b is _blake2.blake2b
    assert bloom.content_digest("Hello,  World") == hashlib.blake2b(
        b"hello world", digest_size=16
    ).digest()
