"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines on passing runs too.  Statistical criteria use frozen seeds, so
outcomes are reproducible.
"""

import math
import random

import numpy as np
import pytest

from corpusops.corpus import Document, SourceClass
from corpusops.dedup import (
    BloomConfig,
    BloomFilter,
    NearDupConfig,
    near_dedup,
    normalize,
    shingles,
    signature,
)
from corpusops.evalstats import SentencePair, memorization_rate, pass_at_k
from corpusops.mix import DupBucket, GroupStat, build_manifest, weight_of
from corpusops.packing import PackInput, pack_online
from corpusops.recipe import (
    Schedule,
    ScheduleKind,
    align_batch,
    lr_at,
    steps_from,
    tau_epoch,
)
from corpusops.runwatch import (
    MAD_FLOOR,
    MAD_TO_SIGMA,
    DetectorTier,
    MetricPoint,
    MonitorConfig,
    RollingMedianMad,
    run_monitor,
    spike_score,
)
from corpusops.transforms import (
    DepGraph,
    FimConfig,
    append_qa,
    fim_transform,
    topo_order,
)
from helpers import (
    enumerated_pass_at_k,
    estimate_jaccard,
    exact_jaccard,
    optimal_bins,
    planted_corpus,
    reconstruct_fim,
    reference_spike_scores,
    shingle_pair_with_jaccard,
    single_linkage_clusters,
)


class _Criterion:
    """Prints one PASS/FAIL line per criterion, then re-raises failures."""

    def __init__(self, number, name):
        self.number = number
        self.name = name
        self.details = ""

    def note(self, details):
        self.details = details

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        suffix = f" ({self.details})" if self.details else ""
        print(f"ACCEPTANCE {self.number}. {self.name}: {verdict}{suffix}")
        return False


def test_criterion_1_recipe_constants():
    with _Criterion(1, "recipe constants") as c:
        tau = tau_epoch(9.8e6, 1.5e-4, 0.05, 12.25e12)
        assert abs(tau - 0.1066) / 0.1066 <= 5e-3
        assert steps_from(12.25e12, 9.8e6) == 1_250_000
        assert align_batch(1136, 400) == 1200
        schedule = Schedule(
            kind=ScheduleKind.COSINE_TO_FLOOR,
            peak=1.5e-4,
            floor=1.5e-6,
            total_steps=1_250_000,
            warmup_steps=125_000,
        )
        assert lr_at(1_250_000, schedule) == 1.5e-6
        c.note(f"tau={tau:.6f}, steps=1.25e6, batch 1136->1200, final lr exact")


def test_criterion_2_minhash_fidelity():
    with _Criterion(2, "MinHash estimator fidelity") as c:
        rng = random.Random(20_202)
        within = 0
        trials = 200
        for i in range(trials):
            target = 0.1 + 0.8 * i / (trials - 1)
            a, b = shingle_pair_with_jaccard(rng, target, rng.randint(100, 400))
            exact = exact_jaccard(a, b)
            estimate = estimate_jaccard(
                signature(a, perm_seed=i), signature(b, perm_seed=i)
            )
            bound = 3 * math.sqrt(exact * (1 - exact) / 128) + 0.01
            if abs(estimate - exact) <= bound:
                within += 1
        assert within >= 0.95 * trials, f"only {within}/{trials} within bound"
        c.note(f"{within}/{trials} pairs within 3-sigma + 0.01")


def test_criterion_3_clustering_equivalence():
    with _Criterion(3, "LSH clustering vs brute-force oracle") as c:
        total_splits = 0
        for seed in range(20):
            rng = random.Random(5000 + seed)
            texts = planted_corpus(
                rng,
                n_groups=rng.randint(4, 10),
                group_size=rng.randint(3, 6),
                n_singletons=rng.randint(30, 80),
            )
            assert len(texts) <= 200
            grams = {i: set(shingles(normalize(t))) for i, t in texts.items()}
            oracle = single_linkage_clusters(
                texts, lambda x, y: exact_jaccard(grams[x], grams[y]), 0.8
            )
            docs = [Document(id=i, text=t) for i, t in sorted(texts.items())]
            _, records = near_dedup(docs, NearDupConfig(perm_seed=seed))
            got = {frozenset(r.members) for r in records}

            merges = [cl for cl in got if not any(cl <= o for o in oracle)]
            assert not merges, f"corpus {seed}: false merges {merges}"
            piece_of = {}
            for idx, cl in enumerate(got):
                for member in cl:
                    piece_of[member] = idx
            splits = sum(
                len({piece_of.get(m, f"lone-{m}") for m in o}) - 1 for o in oracle
            )
            assert splits <= 1, f"corpus {seed}: {splits} false splits"
            total_splits += splits
        c.note(f"20 corpora, {total_splits} false splits, 0 false merges")


def test_criterion_4_bloom_exact_dedup():
    with _Criterion(4, "Bloom filter false-positive rate") as c:
        bloom = BloomFilter(BloomConfig(capacity=100_000, target_fpr=0.001))
        inserted = [f"present-{i}".encode() for i in range(100_000)]
        for item in inserted:
            bloom.add(item)
        false_negatives = sum(1 for item in inserted if item not in bloom)
        assert false_negatives == 0
        false_positives = sum(
            1 for i in range(100_000) if f"absent-{i}".encode() in bloom
        )
        rate = false_positives / 100_000
        assert rate <= 0.002, f"measured FPR {rate}"
        c.note(f"fpr={rate:.5f} (target 0.001, limit 0.002), 0 false negatives")


def _sft_workload(rng, n_docs):
    # 98% short conversational samples, 2% long-context ones.
    for i in range(n_docs):
        if rng.random() < 0.98:
            length = min(int(rng.lognormvariate(5.6, 1.4)) + 1, 8191)
        else:
            length = rng.randint(8192, 65536)
        yield PackInput(id=f"d{i}", length=length)


def test_criterion_5_packing():
    with _Criterion(5, "best-fit packing") as c:
        # (a) zero truncation + conservation on 1e5 random docs
        rng = random.Random(55)
        lengths = [rng.randint(1, 2048) for _ in range(100_000)]
        sequences, stats = pack_online(
            (PackInput(id=f"d{i}", length=n) for i, n in enumerate(lengths)),
            capacity=2048,
            max_open_bins=32,
        )
        packed_total = 0
        seen_ids = set()
        for seq in sequences:
            for doc_id, length in seq.entries:
                assert doc_id not in seen_ids
                seen_ids.add(doc_id)
                packed_total += length
        assert stats.docs_skipped == 0
        assert len(seen_ids) == len(lengths)
        assert packed_total == sum(lengths)
        assert stats.truncation_ratio == 0.0

        # (b) SFT-like workload padding ratio
        sequences, sft_stats = pack_online(
            _sft_workload(random.Random(0), 1_000_000), 65536, 64
        )
        for _ in sequences:
            pass
        assert sft_stats.padding_ratio < 1e-4, sft_stats.padding_ratio

        # (c) best-fit within floor(1.7 * OPT) + 1 on 200 small instances
        rng = random.Random(77)
        for _ in range(200):
            capacity = rng.randint(8, 40)
            instance = [rng.randint(1, capacity) for _ in range(rng.randint(1, 12))]
            seqs, _ = pack_online(
                (PackInput(id=str(i), length=n) for i, n in enumerate(instance)),
                capacity,
                max_open_bins=len(instance),
            )
            used = sum(1 for _ in seqs)
            assert used <= math.floor(1.7 * optimal_bins(instance, capacity)) + 1
        c.note(
            f"conservation ok, padding_ratio={sft_stats.padding_ratio:.2e} < 1e-4, "
            f"200 instances within 1.7*OPT+1"
        )


ALERT = DetectorTier(name="alert", window=3, t_min=2.4, t_max=3.2)
RESTART = DetectorTier(name="restart", window=5, t_min=2.5, t_max=4.0)


def _spiky_stream(rng, n_steps):
    """Base noise plus wide (restart-worthy) and narrow spikes."""
    values = [2.0 + rng.gauss(0, 0.03) for _ in range(n_steps)]
    wide_spans = []
    narrow_steps = []
    cursor = 40
    while cursor < n_steps - 30:
        if rng.random() < 0.5:
            width = rng.randint(RESTART.window, RESTART.window + 5)
            spike = [rng.uniform(4.3, 4.8)] + [
                rng.uniform(3.0, 3.9) for _ in range(width - 1)
            ]
            rng.shuffle(spike)
            values[cursor : cursor + width] = spike
            wide_spans.append((cursor, cursor + width - 1))
            cursor += width
        else:
            values[cursor] = rng.uniform(5.0, 8.0)
            narrow_steps.append(cursor)
            cursor += 1
        cursor += rng.randint(15, 40)  # quiet gap clears both windows
    return values, wide_spans, narrow_steps


def test_criterion_6_monitor():
    with _Criterion(6, "spike monitor recall and precision") as c:
        interval = 37
        config = MonitorConfig(
            alert=ALERT,
            restart=RESTART,
            checkpoint_interval=interval,
            total_steps=3000,
        )
        total_wide = total_narrow = 0
        for seed in range(50):
            rng = random.Random(900 + seed)
            values, wide_spans, narrow_steps = _spiky_stream(rng, 600)
            events = list(
                run_monitor(
                    (MetricPoint(step=t, value=v) for t, v in enumerate(values)),
                    config,
                )
            )
            restarts = [e for e in events if e.tier == 2]
            # 100% recall on wide spikes, one event each (hysteresis)
            assert len(restarts) == len(wide_spans), f"seed {seed}"
            for event, (start, end) in zip(restarts, wide_spans):
                assert start + RESTART.window - 1 <= event.step <= end
                assert event.rollback_step == (event.step // interval) * interval
            # zero restart-tier false positives on narrow spikes
            for event in restarts:
                for narrow in narrow_steps:
                    assert not (narrow <= event.step <= narrow + RESTART.window)
            total_wide += len(wide_spans)
            total_narrow += len(narrow_steps)

            # spike_score agrees with the quadratic-time reference
            reference = reference_spike_scores(values, config.z_window, MAD_FLOOR)
            tracker = RollingMedianMad(config.z_window)
            for t, value in enumerate(values):
                tracker.append(value)
                median, mad = tracker.median(), tracker.mad()
                z = (value - median) / (MAD_TO_SIGMA * max(mad, MAD_FLOOR))
                assert median == reference[t][0]
                assert mad == reference[t][1]
                assert z == reference[t][2]
            for t in (100, 350, 599):
                z, _ = spike_score(values[: t + 1], config.z_window)
                assert z == reference[t][2]
        c.note(
            f"50 streams: {total_wide} wide spikes all caught, "
            f"{total_narrow} narrow spikes zero restarts"
        )


def test_criterion_7_transforms():
    with _Criterion(7, "transform properties") as c:
        # FIM round-trip on 1e4 random files
        config = FimConfig()
        rng = random.Random(70)
        alphabet = "abcdefgh() \n\t<|>#"
        for _ in range(10_000):
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 120)))
            if "<|" in text:
                continue
            assert reconstruct_fim(fim_transform(text, config, rng)) == text

        # topo respects every edge on 1e3 random DAGs
        rng = random.Random(71)
        for _ in range(1000):
            n = rng.randint(1, 14)
            listing = [f"f{i}" for i in range(n)]
            hidden = list(listing)
            rng.shuffle(hidden)
            graph = DepGraph(nodes=list(listing))
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < 0.3:
                        graph.add_edge(hidden[i], hidden[j])
            order = topo_order(graph, listing)
            assert sorted(order) == sorted(listing)
            position = {p: i for i, p in enumerate(order)}
            for dep, dependent in graph.edges:
                assert position[dep] < position[dependent]
            if not graph.edges:
                assert order == listing

        # edgeless inputs preserve listing order
        listing = [f"m{i}" for i in range(30)]
        assert topo_order(DepGraph(nodes=list(listing)), listing) == listing

        # append_qa output prefix-equals the source document
        rng = random.Random(72)
        for _ in range(1000):
            doc = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 80)))
            pairs = [("q", "a")] * rng.randint(1, 3)
            assert append_qa(doc, pairs).startswith(doc)
        c.note("1e4 FIM round-trips, 1e3 DAGs, QA prefix equality")


def test_criterion_8_mix_table():
    with _Criterion(8, "upsampling weight table and manifest") as c:
        cc = SourceClass.COMMON_CRAWL
        expected_ladder = {
            DupBucket.B1: 1,
            DupBucket.B2_5: 3,
            DupBucket.B6_100: 5,
            DupBucket.B101_1000: 8,
            DupBucket.B1000_PLUS: 10,
        }
        for bucket, weight in expected_ladder.items():
            assert weight_of(bucket, cc) == weight
        for source in (SourceClass.CURATED, SourceClass.CODE, SourceClass.SYNTHETIC):
            assert weight_of(DupBucket.B1, source) == 1
            for bucket in expected_ladder:
                if bucket is not DupBucket.B1:
                    assert weight_of(bucket, source) == 2

        # Group structure shaped like the released pre-training mix table:
        # web/QA sources split by duplication bucket (6-10 and 11-100 are
        # separate rows sharing one weight bucket), plus flat sources.
        rng = random.Random(88)
        stats = []
        for source_name, source in (
            ("cc", cc),
            ("best-of-web", cc),
            ("synthetic-qa", SourceClass.SYNTHETIC),
        ):
            for label, count in (
                ("1-1", 1), ("2-5", 3), ("6-10", 8), ("11-100", 50),
                ("101-1000", 500), (">1000", 1500),
            ):
                stats.append(
                    GroupStat(
                        group=f"{source_name}/{label}",
                        tokens=rng.randint(10**6, 10**10),
                        bucket=DupBucket("1") if count == 1 else (
                            DupBucket("2-5") if count <= 5 else (
                                DupBucket("6-100") if count <= 100 else (
                                    DupBucket("101-1000") if count <= 1000
                                    else DupBucket(">1000")
                                )
                            )
                        ),
                        source_class=source,
                    )
                )
        for flat in ("papers", "math", "code", "multilingual", "wikipedia"):
            stats.append(
                GroupStat(
                    group=flat,
                    tokens=rng.randint(10**6, 10**10),
                    bucket=DupBucket.B1,
                    source_class=SourceClass.CURATED,
                )
            )
        manifest = build_manifest(stats)
        total = sum(row.proportion for row in manifest.rows)
        assert abs(total - 1.0) <= 1e-9
        c.note(f"ladder exact, {len(stats)} groups, proportions sum to {total:.12f}")


def test_criterion_9_eval_stats():
    with _Criterion(9, "pass@k and memorization scoring") as c:
        checked = 0
        for n in range(1, 11):
            for correct in range(n + 1):
                for k in range(1, n + 1):
                    expected = enumerated_pass_at_k(n, correct, k)
                    assert pass_at_k(n, correct, k) == pytest.approx(
                        expected, rel=1e-12, abs=1e-15
                    )
                    checked += 1
        pairs = [
            SentencePair("Find the sum of all n.", "Find the sum of all n."),
            SentencePair("Let x be prime.", "Let x be odd."),
            SentencePair("Compute 2+2.", "Compute 2+2.\n"),
            SentencePair("The rest is history.", "The rest was history."),
        ]
        assert memorization_rate(pairs) == 50.0
        assert memorization_rate(pairs[:1]) == 100.0
        assert memorization_rate(pairs[1:2]) == 0.0
        c.note(f"{checked} (n,c,k) triples equal enumeration; fixtures exact")
