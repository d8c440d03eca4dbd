import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpusops.packing import (
    PackInput,
    PackedSequence,
    pack_online,
)
from helpers import optimal_bins, reference_pack


def run_pack(lengths, capacity, max_open):
    items = [PackInput(id=f"d{i}", length=n) for i, n in enumerate(lengths)]
    sequences, stats = pack_online(items, capacity, max_open)
    return list(sequences), stats


class TestPackOnline:
    def test_hand_simulated_example(self):
        # [5,3,4,2] cap 8, max_open 2: 5 opens A (rem 3); 3 fills A -> sealed
        # pad 0; 4 opens B (rem 4); 2 joins B (rem 2); flush -> pad 2.
        sequences, stats = run_pack([5, 3, 4, 2], capacity=8, max_open=2)
        assert [seq.entries for seq in sequences] == [
            (("d0", 5), ("d1", 3)),
            (("d2", 4), ("d3", 2)),
        ]
        assert [seq.padding for seq in sequences] == [0, 2]
        assert stats.sequences == 2
        assert stats.padding_ratio == 2 / 16

    def test_exact_fit_single_doc(self):
        sequences, stats = run_pack([8], capacity=8, max_open=4)
        assert len(sequences) == 1
        assert sequences[0].padding == 0
        assert stats.padding_ratio == 0.0

    def test_oversized_doc_skipped(self):
        sequences, stats = run_pack([9], capacity=8, max_open=4)
        assert sequences == []
        assert stats.docs_skipped == 1
        assert stats.sequences == 0

    def test_eviction_seals_fullest(self):
        # cap 10, max_open 2: 7 -> A(rem 3), 6 -> B(rem 4), 5 fits neither;
        # fullest is A (rem 3) -> sealed with padding 3.
        sequences, _ = run_pack([7, 6, 5], capacity=10, max_open=2)
        assert sequences[0] == PackedSequence(
            capacity=10, entries=(("d0", 7),), padding=3
        )
        # flush in opening order: B then the new bin with 5
        assert [s.entries for s in sequences[1:]] == [(("d1", 6),), (("d2", 5),)]

    def test_best_fit_prefers_tightest_bin(self):
        # 6 -> A(rem 4), 5 -> B(rem 5), then 4 must land in A (tighter).
        sequences, _ = run_pack([6, 5, 4], capacity=10, max_open=3)
        by_first = {seq.entries[0][0]: seq for seq in sequences}
        assert by_first["d0"].entries == (("d0", 6), ("d2", 4))

    def test_matches_reference_simulator_on_random_streams(self):
        rng = random.Random(29)
        for trial in range(200):
            capacity = rng.randint(5, 40)
            max_open = rng.randint(1, 6)
            lengths = [rng.randint(1, capacity + 3) for _ in range(rng.randint(0, 40))]
            sequences, stats = run_pack(lengths, capacity, max_open)
            expected, expected_skips = reference_pack(lengths, capacity, max_open)
            got = [
                ([int(doc_id[1:]) for doc_id, _ in seq.entries], seq.padding)
                for seq in sequences
            ]
            assert got == expected, f"trial {trial}"
            assert stats.docs_skipped == expected_skips

    @given(
        st.lists(st.integers(min_value=1, max_value=30), max_size=60),
        st.integers(min_value=1, max_value=25),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_conservation_and_zero_truncation(self, lengths, capacity, max_open):
        sequences, stats = run_pack(lengths, capacity, max_open)
        placed: dict[str, int] = {}
        for seq in sequences:
            used = 0
            for doc_id, length in seq.entries:
                assert doc_id not in placed  # whole doc in exactly one sequence
                placed[doc_id] = length
                used += length
            assert used + seq.padding == seq.capacity == capacity
        expected_placed = {
            f"d{i}": n for i, n in enumerate(lengths) if n <= capacity
        }
        assert placed == expected_placed
        assert stats.docs_skipped == sum(1 for n in lengths if n > capacity)
        assert stats.truncation_ratio == 0.0

    def test_determinism(self):
        rng = random.Random(1)
        lengths = [rng.randint(1, 300) for _ in range(500)]
        first, _ = run_pack(lengths, capacity=512, max_open=8)
        second, _ = run_pack(lengths, capacity=512, max_open=8)
        assert first == second

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            run_pack([1], capacity=0, max_open=1)
        with pytest.raises(ValueError):
            run_pack([1], capacity=4, max_open=0)
        with pytest.raises(ValueError):
            PackInput(id="x", length=0)


class TestOptimalBins:
    def test_known_instances(self):
        assert optimal_bins([5, 3, 4, 2], 8) == 2
        assert optimal_bins([8, 8], 8) == 2
        assert optimal_bins([], 8) == 0
        assert optimal_bins([4, 4, 4, 4, 4, 4], 12) == 2
        assert optimal_bins([6, 6, 6, 5, 5, 5], 11) == 3

    def test_too_many_items(self):
        with pytest.raises(ValueError):
            optimal_bins([1] * 15, 10)

    def test_oversized_item(self):
        with pytest.raises(ValueError):
            optimal_bins([11], 10)

    def test_matches_exhaustive_assignment_search(self):
        # Independent re-check on tiny instances: try every assignment of
        # items to at most n bins.
        def brute(lengths, capacity):
            n = len(lengths)
            if n == 0:
                return 0
            best = n
            def assign(i, loads):
                nonlocal best
                if len(loads) >= best:
                    return
                if i == n:
                    best = len(loads)
                    return
                for b in range(len(loads)):
                    if loads[b] + lengths[i] <= capacity:
                        loads[b] += lengths[i]
                        assign(i + 1, loads)
                        loads[b] -= lengths[i]
                loads.append(lengths[i])
                assign(i + 1, loads)
                loads.pop()
            assign(0, [])
            return best

        rng = random.Random(41)
        for _ in range(60):
            capacity = rng.randint(4, 20)
            lengths = [rng.randint(1, capacity) for _ in range(rng.randint(0, 8))]
            assert optimal_bins(lengths, capacity) == brute(lengths, capacity)

    def test_best_fit_within_17_10_of_optimal(self):
        rng = random.Random(59)
        for _ in range(200):
            capacity = rng.randint(6, 30)
            lengths = [rng.randint(1, capacity) for _ in range(rng.randint(1, 12))]
            sequences, _ = run_pack(lengths, capacity, max_open=len(lengths))
            opt = optimal_bins(lengths, capacity)
            assert len(sequences) <= math.floor(1.7 * opt) + 1
