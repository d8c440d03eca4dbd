import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusops.corpus import Document
from corpusops.dedup import (
    NearDupConfig,
    near_dedup,
    normalize,
    shingles,
    signature,
    signature_matrix,
)
from corpusops.dedup import pipeline
from corpusops.dedup.minhash import band_keys
from helpers import (
    estimate_jaccard,
    exact_jaccard,
    fresh_token,
    mutate_document,
    random_words,
    reference_band_keys,
    reference_oph_signature,
    shingle_pair_with_jaccard,
)

MAX_U64 = np.iinfo(np.uint64).max


class TestNormalize:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("  AbC,  d\ne ", "abc d e"),
            ("", ""),
            ("Hello, World!!!", "hello world"),
            ("tabs\tand\nnewlines", "tabs and newlines"),
            ("don't-stop", "dontstop"),
            ("已经。完成", "已经完成"),
        ],
    )
    def test_rules(self, raw, expected):
        assert normalize(raw) == expected

    @given(st.text(max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once


class TestShingles:
    def test_counts(self):
        fifteen = " ".join(f"w{i}" for i in range(15))
        assert len(shingles(fifteen)) == 3

    def test_exactly_thirteen_words(self):
        thirteen = " ".join(f"w{i}" for i in range(13))
        assert shingles(thirteen) == [thirteen]

    def test_short_doc_whole_document_shingle(self):
        assert shingles("a b c d e") == ["a b c d e"]

    def test_empty(self):
        assert shingles("") == []


class TestSignature:
    def test_identical_sets_identical_signatures(self):
        grams = [f"g{i}" for i in range(40)]
        a = signature(grams, perm_seed=7)
        b = signature(list(reversed(grams)), perm_seed=7)
        assert np.array_equal(a.values, b.values)

    def test_empty_set_is_error(self):
        with pytest.raises(ValueError):
            signature([], perm_seed=0)

    def test_different_seed_different_signature(self):
        grams = [f"g{i}" for i in range(40)]
        a = signature(grams, perm_seed=1)
        b = signature(grams, perm_seed=2)
        assert not np.array_equal(a.values, b.values)

    def test_disjoint_sets_nearly_no_matches(self):
        # Exact-Jaccard oracle: disjoint sets have J = 0, so at most a few
        # of the 128 components should collide.
        rng = random.Random(11)
        a = [fresh_token(rng) for _ in range(150)]
        b = [fresh_token(rng) for _ in range(150)]
        assert exact_jaccard(a, b) == 0.0
        sig_a = signature(a, perm_seed=3)
        sig_b = signature(b, perm_seed=3)
        matches = int(np.sum(sig_a.values == sig_b.values))
        assert matches <= 3

    def test_half_jaccard_within_three_sigma_mostly(self):
        # Brute-force Jaccard oracle at J = 0.5 over 200 seeded trials.
        rng = random.Random(17)
        bound = 3 * math.sqrt(0.25 / 128)
        hits = 0
        for trial in range(200):
            a, b = shingle_pair_with_jaccard(rng, 0.5, union_size=200)
            assert exact_jaccard(a, b) == 0.5
            est = estimate_jaccard(
                signature(a, perm_seed=trial), signature(b, perm_seed=trial)
            )
            if abs(est - 0.5) <= bound:
                hits += 1
        assert hits >= 190  # >= 95% of trials


class TestEstimateJaccard:
    def test_self_is_one(self):
        sig = signature([f"g{i}" for i in range(30)], perm_seed=0)
        assert estimate_jaccard(sig, sig) == 1.0

    def test_symmetry_and_identity(self):
        rng = random.Random(5)
        a, b = shingle_pair_with_jaccard(rng, 0.4, union_size=100)
        sa, sb = signature(a, perm_seed=9), signature(b, perm_seed=9)
        assert estimate_jaccard(sa, sb) == estimate_jaccard(sb, sa)
        assert estimate_jaccard(sa, sb) < 1.0

    def test_one_means_identical_components(self):
        sig = signature([f"g{i}" for i in range(30)], perm_seed=2)
        disturbed = type(sig)(values=sig.values.copy(), perm_seed=2)
        disturbed.values[0] += np.uint64(1)
        assert estimate_jaccard(sig, disturbed) == 127 / 128
        assert estimate_jaccard(sig, sig) == 1.0

    def test_independent_docs_below_point_one(self):
        rng = random.Random(23)
        a = [fresh_token(rng) for _ in range(200)]
        b = [fresh_token(rng) for _ in range(200)]
        est = estimate_jaccard(signature(a, perm_seed=1), signature(b, perm_seed=1))
        assert est < 0.1

    def test_mean_abs_error_over_200_random_pairs(self):
        rng = random.Random(31)
        errors = []
        for trial in range(200):
            target = rng.uniform(0.05, 0.95)
            a, b = shingle_pair_with_jaccard(rng, target, union_size=rng.randint(60, 300))
            exact = exact_jaccard(a, b)
            est = estimate_jaccard(
                signature(a, perm_seed=trial), signature(b, perm_seed=trial)
            )
            errors.append(abs(est - exact))
        assert sum(errors) / len(errors) <= 0.05

    def test_match_fraction_stddev_bounded_over_500_seeds(self):
        # Invariant: empirical std over seeds <= 1.5 * sqrt(J(1-J)/128).
        rng = random.Random(43)
        for target in (0.3, 0.5, 0.8):
            a, b = shingle_pair_with_jaccard(rng, target, union_size=240)
            exact = exact_jaccard(a, b)
            estimates = [
                estimate_jaccard(signature(a, perm_seed=s), signature(b, perm_seed=s))
                for s in range(500)
            ]
            std = float(np.std(estimates))
            assert std <= 1.5 * math.sqrt(exact * (1 - exact) / 128)


class TestLshKeys:
    """LSH bucket keys: :func:`band_keys` over signature rows."""

    def test_identical_signatures_identical_keys(self):
        grams = [f"g{i}" for i in range(50)]
        a = signature(grams, perm_seed=2).values
        b = signature(grams, perm_seed=2).values
        assert np.array_equal(band_keys(a[np.newaxis], 8), band_keys(b[np.newaxis], 8))

    def test_shape_sixteen_bands(self):
        sig = signature(["x", "y"], perm_seed=0)
        assert band_keys(sig.values[np.newaxis], 8).shape == (1, 16)
        assert band_keys(np.empty((0, 128), dtype=np.uint64), 8).shape == (0, 16)
        assert band_keys(np.empty((0, 100), dtype=np.uint64), 5).shape == (0, 20)

    def test_shared_full_band_collides(self):
        values = signature([f"g{i}" for i in range(30)], perm_seed=4).values
        disturbed = values.copy()
        disturbed[8:] += np.uint64(1)  # leave band 0 intact, disturb the rest
        keys = band_keys(np.stack([values, disturbed]), 8)
        assert keys[0, 0] == keys[1, 0]
        assert (keys[0, 1:] != keys[1, 1:]).all()

    def test_divisibility_violation_errors(self):
        matrix = signature_matrix(["x"], perm_seed=0, num_perm=100)
        for rows in (8, 0, -5, 200):
            with pytest.raises(ValueError, match="does not divide"):
                band_keys(matrix, rows)

    @pytest.mark.parametrize("num_perm,rows", [(128, 8), (100, 5), (16, 16)])
    def test_keys_match_loop_reference(self, num_perm, rows):
        texts = [" ".join(f"w{i}" for i in range(k, k + 30)) for k in (0, 1, 50)]
        matrix = signature_matrix(texts, perm_seed=6, num_perm=num_perm)
        keys = band_keys(matrix, rows)
        assert keys.shape == (3, num_perm // rows)
        for row, row_keys in zip(matrix.tolist(), keys.tolist()):
            assert row_keys == reference_band_keys(row, rows)


class TestSeeds:
    @pytest.mark.parametrize("seed", [-1, -(2**64)])
    def test_negative_seed_is_error(self, seed):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            signature(["a b"], perm_seed=seed)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            signature_matrix(["a b"], perm_seed=seed)

    def test_seeds_past_64_bits_are_accepted_and_distinct(self):
        grams = [f"g{i} h{i}" for i in range(60)]
        seeds = [0, 1, 2**64 - 1, 2**64, 2**64 + 1, 2**70 + 5, 2**128]
        values = []
        for seed in seeds:
            got = signature(grams, seed).values.tolist()
            assert got == reference_oph_signature(grams, seed)
            values.append(tuple(got))
        assert len(set(values)) == len(seeds)


# Texts of words joined by single spaces, where a word may be empty: an
# empty text, or a leading, trailing or doubled space.
_spaced_texts = st.lists(
    st.text(alphabet="abcé已", max_size=3), min_size=1, max_size=8
).map(" ".join)


class TestWhitespaceContract:
    @given(st.lists(_spaced_texts, min_size=1, max_size=5), st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_empty_word_is_rejected(self, texts, seed):
        if any("" in text.split(" ") for text in texts):
            with pytest.raises(ValueError, match="empty word"):
                signature_matrix(texts, perm_seed=seed, shingle_size=3)
            with pytest.raises(ValueError, match="empty word"):
                signature(texts, seed)
            return
        matrix = signature_matrix(texts, perm_seed=seed, shingle_size=3)
        for row, text in zip(matrix, texts):
            assert np.array_equal(row, signature(shingles(text, 3), seed).values)
        assert signature(texts, seed).values.tolist() == reference_oph_signature(texts, seed)

    def test_text_without_words_is_error(self):
        for texts in (["a b", ""], ["  "], ["x", "a  b"], [" a"], ["a "]):
            with pytest.raises(ValueError, match="empty word"):
                signature_matrix(texts, perm_seed=0)
            with pytest.raises(ValueError, match="empty word"):
                signature(texts, perm_seed=0)

    def test_no_texts_give_an_empty_matrix(self):
        assert signature_matrix([], perm_seed=0).shape == (0, 128)


# Words with capitals, punctuation and non-ASCII letters, joined by mixed
# whitespace: exercises normalize, short documents and 13-gram windows.
_words = st.text(alphabet="abcdeXY,.!'é已 ", min_size=1, max_size=5)
_texts = st.lists(_words, max_size=40).flatmap(
    lambda ws: st.sampled_from([" ", "\n", "\t "]).map(lambda sep: sep.join(ws))
)


class TestSignatureMatrix:
    @given(st.lists(_texts, min_size=1, max_size=6), st.integers(0, 2**32))
    @settings(max_examples=150, deadline=None)
    def test_single_document_api_equals_batched_row(self, texts, seed):
        normalized = [normalize(t) for t in texts if normalize(t)]
        if not normalized:
            return
        matrix = signature_matrix(normalized, perm_seed=seed)
        assert matrix.shape == (len(normalized), 128)
        for row, text in zip(matrix, normalized):
            assert np.array_equal(signature(shingles(text), seed).values, row)

    @given(_texts, st.integers(0, 2**32), st.sampled_from([16, 100, 128]))
    @settings(max_examples=100, deadline=None)
    def test_matches_loop_reference(self, text, seed, num_perm):
        grams = shingles(normalize(text))
        if not grams:
            return
        got = signature(grams, seed, num_perm).values.tolist()
        assert got == reference_oph_signature(grams, seed, num_perm)

    def test_matches_loop_reference_on_mixed_shingles(self):
        grams = ["one", "two words", "x y z", "two words"]
        grams += [f"g{i}" for i in range(300)]
        assert signature(grams, 5).values.tolist() == reference_oph_signature(grams, 5)

    @pytest.mark.parametrize("n_words", [1, 12, 13])
    def test_one_shingle_document_fills_every_bin(self, n_words):
        text = " ".join(f"w{i}" for i in range(n_words))
        assert len(shingles(text)) == 1
        values = signature(shingles(text), perm_seed=3).values
        assert len(set(values.tolist())) == 1
        assert values[0] != MAX_U64

    def test_sparse_document_borrows_only_from_filled_bins(self):
        text = " ".join(f"w{i}" for i in range(15))  # three shingles
        values = signature_matrix([text], perm_seed=8)[0]
        distinct = set(values.tolist())
        assert 1 <= len(distinct) <= 3
        # A borrowed value still sits in its own bin: value % num_perm.
        for value in distinct:
            assert values[value % 128] == value

    @pytest.mark.parametrize("num_perm,bands,rows", [(64, 16, 4), (100, 20, 5)])
    def test_other_signature_lengths(self, num_perm, bands, rows):
        rng = random.Random(num_perm)
        base = random_words(rng, 150)
        docs = [
            Document(id="a", text=" ".join(base)),
            Document(id="b", text=" ".join(mutate_document(rng, base))),
            Document(id="c", text=" ".join(random_words(rng, 150))),
        ]
        sig = signature(shingles(normalize(docs[0].text)), 0, num_perm)
        assert sig.values.shape == (num_perm,)
        assert band_keys(sig.values[np.newaxis], rows).shape == (1, bands)
        config = NearDupConfig(num_perm=num_perm, bands=bands, rows=rows)
        kept, clusters = near_dedup(docs, config)
        assert [c.members for c in clusters] == [("a", "b")]
        assert len(kept) == 2

    def test_same_values_under_different_hash_seeds(self):
        script = (
            "from corpusops.dedup import normalize, shingles, signature\n"
            "text = normalize('The quick brown fox, jumps over the lazy dog! ' * 4)\n"
            "print(signature(shingles(text), 11).values.tobytes().hex())\n"
        )
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, timeout=60, check=True,
            )
            outputs.append(proc.stdout.strip())
        text = normalize("The quick brown fox, jumps over the lazy dog! " * 4)
        here = signature(shingles(text), 11).values.tobytes().hex()
        assert outputs == [here, here]

    def test_batch_boundaries_do_not_change_signatures(self, monkeypatch):
        # fingerprint keeps the band keys and the low 16 bits of the
        # signature rows; whatever the batch size, both match the rows.
        rng = random.Random(99)
        docs = [
            Document(id=f"d{i}", text=" ".join(random_words(rng, rng.randint(0, 60))))
            for i in range(80)
        ]
        config = NearDupConfig(perm_seed=4)
        ids = [d.id for d in docs if d.text]
        rows = signature_matrix([normalize(d.text) for d in docs if d.text], config.perm_seed)
        by_id = {d.id: d for d in docs}
        for doc_id, row in zip(ids[:10], rows):
            single = signature(shingles(normalize(by_id[doc_id].text)), config.perm_seed)
            assert np.array_equal(single.values, row)
        for batch_words in (1, 50, 333, pipeline.BATCH_WORDS, 10**9):
            monkeypatch.setattr(pipeline, "BATCH_WORDS", batch_words)
            ranks, keys, sketch = pipeline.fingerprint(docs, config)
            assert [r.id for r in ranks] == ids
            assert np.array_equal(keys, band_keys(rows, config.rows))
            assert sketch.dtype == np.uint16
            assert np.array_equal(sketch, rows & np.uint64(0xFFFF))
