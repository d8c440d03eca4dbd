import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusops.corpus import Document, SourceClass
from corpusops.dedup import (
    ClusterRecord,
    NearDupConfig,
    NearDupStats,
    Signature,
    UnionFind,
    choose_representative,
    cluster,
    near_dedup,
    normalize,
    shingles,
    signature,
)
from corpusops.dedup import pipeline, unionfind
from corpusops.dedup.minhash import band_keys, confirm_sketch
from corpusops.dedup.pipeline import candidate_pairs_from_buckets
from helpers import (
    exact_jaccard,
    mutate_document,
    planted_corpus,
    random_words,
    reference_representative,
    single_linkage_clusters,
)


def sigs_for(texts, perm_seed=0):
    return {
        doc_id: signature(shingles(normalize(text)), perm_seed)
        for doc_id, text in texts.items()
    }


def make_doc(doc_id, curated=False, timestamp=None, source=SourceClass.COMMON_CRAWL):
    return Document(
        id=doc_id, text="x", curated=curated, timestamp=timestamp, source_class=source
    )


WORDS = " ".join(f"w{i}" for i in range(40))


class TestCluster:
    def test_transitive_union(self):
        texts = {"a": WORDS, "b": WORDS, "c": WORDS}
        records = cluster([("a", "b"), ("b", "c")], sigs_for(texts), 0.8)
        assert len(records) == 1
        assert records[0].members == ("a", "b", "c")
        assert records[0].size == 3

    def test_no_confirmed_pairs(self):
        texts = {
            "a": " ".join(f"a{i}" for i in range(40)),
            "b": " ".join(f"b{i}" for i in range(40)),
        }
        assert cluster([("a", "b")], sigs_for(texts), 0.8) == []

    def test_below_threshold_pair_rejected(self):
        base = [f"w{i}" for i in range(40)]
        texts = {
            "a": " ".join(base),
            "b": " ".join(base[:20] + [f"x{i}" for i in range(20)]),
        }
        assert cluster([("a", "b")], sigs_for(texts), 0.8) == []

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_pair_order_invariance(self, rng):
        texts = {name: WORDS for name in "abcdefg"}
        signatures = sigs_for(texts)
        pairs = [("a", "b"), ("b", "c"), ("d", "e"), ("f", "g"), ("a", "c")]
        rng.shuffle(pairs)
        records = cluster(pairs, signatures, 0.8)
        assert [r.members for r in records] == [("a", "b", "c"), ("d", "e"), ("f", "g")]

    def test_matches_bruteforce_single_linkage_on_random_corpora(self):
        # Oracle: all-pairs exact Jaccard over shingle sets, single linkage.
        for seed in range(6):
            rng = random.Random(1000 + seed)
            texts = planted_corpus(rng, n_groups=5, group_size=4, n_singletons=20)
            grams = {i: set(shingles(normalize(t))) for i, t in texts.items()}
            expected = single_linkage_clusters(
                texts, lambda x, y: exact_jaccard(grams[x], grams[y]), 0.8
            )
            signatures = sigs_for(texts, perm_seed=seed)
            all_pairs = [
                (a, b)
                for i, a in enumerate(sorted(texts))
                for b in sorted(texts)[i + 1 :]
            ]
            got = {
                frozenset(r.members)
                for r in cluster(all_pairs, signatures, 0.8)
            }
            assert got == expected


    def test_signatures_from_different_seeds_rejected(self):
        signatures = {"a": signature(["x y"], 0), "b": signature(["x y"], 1)}
        with pytest.raises(ValueError):
            cluster([("a", "b")], signatures, 0.8)


class TestUnionFind:
    @given(st.integers(1, 40), st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_sets_are_connected_components(self, size, edges):
        edges = [(a % size, b % size) for a, b in edges]
        forest = UnionFind(size)
        half = len(edges) // 2
        for chunk in (edges[:half], edges[half:]):
            forest.union(np.array([a for a, _ in chunk], dtype=np.int64),
                         np.array([b for _, b in chunk], dtype=np.int64))
        expected = single_linkage_clusters(
            range(size), lambda x, y: (x, y) in edges or (y, x) in edges, 0.5
        )
        roots = forest.roots()
        got: dict[int, set[int]] = {}
        for row in range(size):
            got.setdefault(int(roots[row]), set()).add(row)
        assert {frozenset(g) for g in got.values() if len(g) > 1} == expected
        assert all(root == min(group) for root, group in got.items())


class TestClusterRecord:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ClusterRecord(members=("a",), representative="a")
        with pytest.raises(ValueError):
            ClusterRecord(members=("a", "b"), representative="z")


class TestChooseRepresentative:
    def test_curated_beats_common_crawl(self):
        docs = {
            "cc": make_doc("cc", curated=False, timestamp="2024-06-01"),
            "cur": make_doc("cur", curated=True, timestamp="2020-01-01"),
        }
        record = ClusterRecord(members=("cc", "cur"), representative="cc")
        assert choose_representative(record, docs) == "cur"

    def test_newer_beats_older(self):
        docs = {
            "old": make_doc("old", timestamp="2020-05-05"),
            "new": make_doc("new", timestamp="2024-05-05"),
        }
        record = ClusterRecord(members=("new", "old"), representative="new")
        assert choose_representative(record, docs) == "new"

    def test_all_keys_equal_smallest_id(self):
        docs = {name: make_doc(name) for name in ("b", "a", "c")}
        record = ClusterRecord(members=("a", "b", "c"), representative="a")
        assert choose_representative(record, docs) == "a"

    def test_missing_timestamp_ranks_oldest(self):
        docs = {
            "undated": make_doc("undated"),
            "dated": make_doc("dated", timestamp="1999-01-01"),
        }
        record = ClusterRecord(members=("dated", "undated"), representative="dated")
        assert choose_representative(record, docs) == "dated"

    def test_matches_one_sort_per_key(self):
        # Ids drawn apart from the ranking, so id order rarely picks the member.
        rng = random.Random(23)
        for _ in range(300):
            ids = sorted(rng.sample([f"d{i}" for i in range(20)], rng.randint(2, 6)))
            docs = {i: make_doc(i, curated=rng.random() < 0.3,
                                timestamp=rng.choice([None, "2023-01-01", "2023-06-01", "2024-01-01"]))
                    for i in ids}
            record = ClusterRecord(members=tuple(ids), representative=ids[0])
            assert choose_representative(record, docs) == reference_representative(docs.values())

    def test_unresolvable_member_errors(self):
        record = ClusterRecord(members=("a", "b"), representative="a")
        with pytest.raises(KeyError):
            choose_representative(record, {"a": make_doc("a")})


class TestNearDedupPipeline:
    def test_keeps_representative_with_cluster_size(self):
        rng = random.Random(3)
        texts = planted_corpus(rng, n_groups=3, group_size=4, n_singletons=8)
        docs = [Document(id=i, text=t) for i, t in sorted(texts.items())]
        kept, clusters = near_dedup(docs, NearDupConfig(perm_seed=12))
        assert len(clusters) == 3
        kept_ids = {d.id for d in kept}
        for record in clusters:
            assert record.representative in kept_ids
            assert all(m in texts for m in record.members)
            assert sum(m in kept_ids for m in record.members) == 1
        promoted = {d.id: d.dup_count for d in kept if d.dup_count > 1}
        assert promoted == {r.representative: r.size for r in clusters}

    def test_each_record_names_its_representative(self):
        # Rows in shuffled order, so neither row nor id order gives the
        # sorted members or the member to keep.
        rng = random.Random(29)
        texts = planted_corpus(rng, n_groups=12, group_size=4, n_singletons=10)
        docs = [Document(id=i, text=t, curated=rng.random() < 0.3,
                         timestamp=rng.choice([None, "2023-05-01", "2024-01-01"]))
                for i, t in texts.items()]
        rng.shuffle(docs)
        by_id = {doc.id: doc for doc in docs}
        clusters = pipeline.near_clusters(docs, NearDupConfig(perm_seed=5))
        assert any(record.representative != record.members[0] for record in clusters)
        for record in clusters:
            assert record.members == tuple(sorted(record.members))
            assert record.representative == reference_representative(
                by_id[m] for m in record.members
            )

    def test_idempotent_on_own_output(self):
        rng = random.Random(9)
        texts = planted_corpus(rng, n_groups=4, group_size=5, n_singletons=10)
        docs = [Document(id=i, text=t) for i, t in sorted(texts.items())]
        config = NearDupConfig(perm_seed=21)
        kept, clusters = near_dedup(docs, config)
        assert clusters
        kept_again, clusters_again = near_dedup(kept, config)
        assert clusters_again == []
        assert kept_again == kept

    def test_empty_after_normalization_passes_through(self):
        docs = [Document(id="p", text="!!! ... ???"), Document(id="q", text="?!")]
        kept, clusters = near_dedup(docs)
        assert [d.id for d in kept] == ["p", "q"]
        assert clusters == []

    def test_duplicate_ids_rejected(self):
        docs = [Document(id="a", text="x"), Document(id="a", text="y")]
        with pytest.raises(ValueError):
            near_dedup(docs)

    def test_config_is_checked_on_construction(self):
        for threshold in (0.0, 1.0, 2.0, float("nan")):
            with pytest.raises(ValueError, match="confirm_threshold must be in"):
                NearDupConfig(confirm_threshold=threshold)
        for shape in ({"bands": 16, "rows": 4}, {"bands": -1, "rows": -128},
                      {"num_perm": 0, "bands": 0, "rows": 8}):
            with pytest.raises(ValueError, match="bands"):
                NearDupConfig(**shape)

    def test_staged_pipeline_equals_near_dedup(self):
        rng = random.Random(41)
        texts = planted_corpus(rng, n_groups=6, group_size=4, n_singletons=30)
        docs = [Document(id=i, text=t) for i, t in sorted(texts.items())]
        config = NearDupConfig(perm_seed=3)
        signatures = sigs_for(texts, perm_seed=3)
        pairs = candidate_pairs_from_buckets(signatures, config)
        assert all(a < b for a, b in pairs)
        staged = cluster(pairs, signatures, config.confirm_threshold)
        _, whole = near_dedup(docs, config)
        assert [r.members for r in staged] == [r.members for r in whole]

    def test_streamed_clusters_equal_near_dedup(self):
        # near_clusters reads a one-shot stream of unknown length; its key
        # and sketch arrays grow as the documents are read.
        rng = random.Random(17)
        texts = planted_corpus(rng, n_groups=5, group_size=3, n_singletons=20)
        docs = [
            Document(id=i, text=t, curated=rng.random() < 0.3,
                     timestamp=rng.choice([None, "2023-05-01", "2024-01-01"]))
            for i, t in sorted(texts.items())
        ]
        docs.append(Document(id="blank", text="?!"))
        config = NearDupConfig(perm_seed=8)
        _, whole = near_dedup(docs, config)
        assert pipeline.near_clusters((doc for doc in docs), config) == whole
        _, keys, sketch = pipeline.fingerprint(iter(()), config)
        assert keys.shape == (0, config.bands) and sketch.shape == (0, config.num_perm)
        assert pipeline.near_clusters(iter(()), config) == []

    def test_link_skips_pairs_already_joined(self):
        matrix = np.zeros((4, 8), dtype=np.uint64)
        forest = UnionFind(4)
        forest.union(np.array([0]), np.array([1]))
        compared = unionfind.link(forest, matrix, np.array([0, 1, 2]), np.array([1, 0, 3]), 0.8)
        assert compared == 1
        assert forest.roots().tolist() == [0, 0, 2, 2]

    def test_bins_equal_in_their_low_16_bits_confirm(self, monkeypatch):
        # The rows share band 0 and differ above bit 15 in 40 other bins:
        # 88 of 128 bins agree at full width, all 128 in the confirm sketch.
        rng = np.random.default_rng(5)
        a = rng.integers(0, np.iinfo(np.uint64).max, 128, dtype=np.uint64, endpoint=True)
        b = a.copy()
        b[8:48] ^= np.uint64(1 << 40)
        assert (a == b).mean() < 0.8
        forest = UnionFind(2)
        assert unionfind.link(forest, confirm_sketch(np.stack([a, b])),
                              np.array([0]), np.array([1]), 0.8) == 1
        assert forest.roots().tolist() == [0, 0]
        staged = cluster([("x", "y")], {"x": Signature(a, 0), "y": Signature(b, 0)}, 0.8)
        assert [r.members for r in staged] == [("x", "y")]
        # near_clusters on two documents whose signature rows are a and b.
        rows = {"x": a, "y": b}
        monkeypatch.setattr(pipeline, "signature_matrix",
                            lambda texts, *config: np.stack([rows[t] for t in texts]))
        docs = [Document(id="x", text="x"), Document(id="y", text="y")]
        assert pipeline.near_clusters(docs) == staged

    @pytest.mark.parametrize("n", [2, 50, 2000])
    def test_identical_documents_take_one_confirmation_each(self, n):
        text = " ".join(f"w{i}" for i in range(40))
        docs = [Document(id=f"d{i:04d}", text=text) for i in range(n)]
        stats = NearDupStats()
        kept, clusters = near_dedup(docs, NearDupConfig(), stats)
        assert [d.id for d in kept] == ["d0000"]
        assert [c.size for c in clusters] == [n]
        assert stats.largest_bucket == n
        assert stats.confirmations == n - 1

    def test_planted_cluster_confirmations_stay_linear(self):
        rng = random.Random(2000)
        base = random_words(rng, 300)
        docs = [
            Document(id=f"d{i:04d}", text=" ".join(mutate_document(rng, base)))
            for i in range(2000)
        ]
        stats = NearDupStats()
        kept, clusters = near_dedup(docs, NearDupConfig(), stats)
        assert [c.size for c in clusters] == [2000] and len(kept) == 1
        assert stats.confirmations <= 16 * 2000

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.lists(st.tuples(st.integers(0, 15), st.integers(0, 3)), max_size=6),
            ),
            min_size=2,
            max_size=14,
        ),
        st.sampled_from([0.5, 0.8, 0.9]),
    )
    @settings(max_examples=200, deadline=None)
    def test_bucket_rounds_join_what_all_pairs_would(self, edits, threshold):
        # Rows are edited copies of three base rows, so buckets hold several
        # rows, some of them too far apart to confirm.  Oracle: every pair
        # sharing a whole band is confirmed on its own.
        rows = []
        for base, changes in edits:
            row = [(base * 7 + i * 3) % 5 for i in range(16)]
            for position, value in changes:
                row[position] = value
            rows.append(row)
        matrix = np.array(rows, dtype=np.uint64)
        config = NearDupConfig(num_perm=16, bands=4, rows=4, confirm_threshold=threshold)

        def joined(x, y):
            shares_band = any(rows[x][b:b + 4] == rows[y][b:b + 4] for b in range(0, 16, 4))
            agreement = sum(u == v for u, v in zip(rows[x], rows[y])) / 16
            return shares_band and agreement >= threshold

        expected = single_linkage_clusters(range(len(rows)), lambda x, y: joined(x, y), 0.5)
        forest = UnionFind(len(rows))
        stats = NearDupStats()
        for keys in band_keys(matrix, config.rows).T:
            pipeline._link_buckets(forest, matrix, keys, threshold, stats)
        got: dict[int, set[int]] = {}
        for row, root in enumerate(forest.roots().tolist()):
            got.setdefault(root, set()).add(row)
        assert {frozenset(g) for g in got.values() if len(g) > 1} == expected
        assert stats.confirmations <= 4 * len(rows) * (len(rows) - 1) // 2
