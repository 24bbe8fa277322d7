"""Adjusted Rand index."""

import numpy as np
import pytest

import oracles

from rsm import adjusted_rand_index


class TestAdjustedRandIndex:
    def test_identical_partitions_score_one(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            labels = rng.integers(0, 4, size=30)
            assert adjusted_rand_index(labels, labels) == 1.0

    def test_relabeled_identical_partitions_score_one(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        renamed = np.array([5, 5, 9, 9, 1, 1])
        assert adjusted_rand_index(labels, renamed) == 1.0

    def test_crossed_pairs_score_minus_half(self):
        value = adjusted_rand_index([1, 1, 2, 2], [1, 2, 1, 2])
        np.testing.assert_allclose(value, -0.5, atol=1e-12)

    def test_matches_pair_counting_definition(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.integers(0, 4, size=24)
            b = rng.integers(0, 3, size=24)
            np.testing.assert_allclose(adjusted_rand_index(a, b),
                                       oracles.pair_counting_ari(a, b),
                                       atol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        a = rng.integers(0, 5, size=40)
        b = rng.integers(0, 5, size=40)
        np.testing.assert_allclose(adjusted_rand_index(a, b),
                                   adjusted_rand_index(b, a), atol=1e-12)

    def test_invariant_to_label_names(self):
        rng = np.random.default_rng(3)
        a = rng.integers(0, 4, size=40)
        b = rng.integers(0, 4, size=40)
        renamed = np.array([10, 42, 7, 99])[b]
        np.testing.assert_allclose(adjusted_rand_index(a, b),
                                   adjusted_rand_index(a, renamed), atol=1e-12)

    def test_independent_partitions_score_near_zero(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 5, size=3000)
        b = rng.integers(0, 5, size=3000)
        assert abs(adjusted_rand_index(a, b)) < 0.01

    def test_degenerate_partitions_score_one_by_convention(self):
        assert adjusted_rand_index([3, 3, 3], [7, 7, 7]) == 1.0
        assert adjusted_rand_index([0, 1, 2], [5, 6, 7]) == 1.0
        assert adjusted_rand_index([0], [4]) == 1.0

    def test_accepts_string_labels(self):
        assert adjusted_rand_index(["a", "a", "b"], [0, 0, 1]) == 1.0

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            adjusted_rand_index([0, 1], [0, 1, 2])

    def test_rejects_empty_input(self):
        with pytest.raises(ValueError, match="non-empty"):
            adjusted_rand_index([], [])
