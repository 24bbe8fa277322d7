"""Generator correctness: determinism, edge cases, and sampling statistics.

The statistical checks use fixed seeds, so they are deterministic; the
tolerances are three to four standard deviations of the relevant binomial
or multinomial counts.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from builders import random_model

import rsm.generate
from rsm import (
    GeneratedSample,
    RsmParams,
    TypedNetwork,
    benchmark_params,
    benchmark_scenario,
    demo_params,
    sample_network,
    scenario_params,
)


class TestScenarioParams:
    def test_dimension_properties(self):
        params, sub = demo_params()
        assert sub.shape == (30,)
        assert params.n_subgraphs == 2
        assert params.n_clusters == 3
        assert params.n_types == 3

    def test_subgraph_labels_are_contiguous(self):
        _, sub = demo_params()
        np.testing.assert_array_equal(sub, np.repeat([0, 1], 15))

    def test_rejects_size_count_mismatch(self):
        with pytest.raises(ValueError, match="subgraph_sizes must list 1 sizes"):
            scenario_params(alpha=[[1.0]], type_probs_within=[1.0],
                            type_probs_between=[1.0], edge_prob_within=0.5,
                            edge_prob_between=0.5, subgraph_sizes=[3, 3])

    @pytest.mark.parametrize("sizes, message", [
        ([2.7], "must contain integers"),
        ([-1], "must be nonnegative, got -1"),
        ([[3]], r"must list 1 sizes, got shape \(1, 1\)"),
    ], ids=["fractional", "negative", "nested"])
    def test_rejects_malformed_sizes(self, sizes, message):
        with pytest.raises(ValueError, match="subgraph_sizes " + message):
            scenario_params(alpha=[[1.0]], type_probs_within=[1.0],
                            type_probs_between=[1.0], edge_prob_within=0.5,
                            edge_prob_between=0.5, subgraph_sizes=sizes)

    def test_rejects_probability_outside_unit_interval(self):
        with pytest.raises(ValueError, match=r"got gamma\[0, 0\] = 1.2"):
            scenario_params(alpha=[[1.0]], type_probs_within=[1.0],
                            type_probs_between=[1.0], edge_prob_within=1.2,
                            edge_prob_between=0.5, subgraph_sizes=[3])

    def test_rejects_non_stochastic_type_row(self):
        with pytest.raises(ValueError, match="pi rows must sum to 1"):
            scenario_params(alpha=[[1.0]], type_probs_within=[0.7, 0.7],
                            type_probs_between=[0.5, 0.5], edge_prob_within=0.5,
                            edge_prob_between=0.5, subgraph_sizes=[3])

    @pytest.mark.parametrize("alpha", [[0.5, 0.5], 1.0, [[[1.0]]]])
    def test_rejects_alpha_that_is_not_a_table(self, alpha):
        with pytest.raises(ValueError, match="alpha must be S x K"):
            scenario_params(alpha=alpha, type_probs_within=[1.0],
                            type_probs_between=[1.0], edge_prob_within=0.5,
                            edge_prob_between=0.5, subgraph_sizes=[2])

    def test_rejects_unequal_type_vectors(self):
        with pytest.raises(ValueError, match="equal-length"):
            scenario_params(alpha=[[1.0]], type_probs_within=[1.0],
                            type_probs_between=[0.5, 0.5], edge_prob_within=0.5,
                            edge_prob_between=0.5, subgraph_sizes=[3])

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_equals_the_loop_expansion(self, data):
        s, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        alpha = rng.dirichlet(np.ones(k), size=s)
        within_types, between_types = rng.dirichlet(np.ones(c), size=2)
        # an integer probability once made np.full build an integer gamma,
        # which cut the other probability down to 0 or 1
        probability = st.one_of(st.floats(0, 1), st.sampled_from([0, 1]))
        within, between = data.draw(probability), data.draw(probability)
        sizes = data.draw(st.lists(st.integers(0, 5), min_size=s, max_size=s))
        params, sub = scenario_params(alpha, within_types, between_types,
                                      within, between, sizes)
        gamma, pi, labels = oracles.structured_scenario(
            alpha, within_types, between_types, within, between, sizes)
        np.testing.assert_array_equal(params.alpha, alpha)
        np.testing.assert_array_equal(params.gamma, gamma)
        np.testing.assert_array_equal(params.pi, pi)
        np.testing.assert_array_equal(sub, labels)
        assert sub.dtype == np.int64


class TestExpandScenario:
    def test_gamma_pattern(self):
        params, _ = benchmark_params(3)
        expected = np.full((3, 3), 0.1)
        np.fill_diagonal(expected, 0.2)
        np.testing.assert_array_equal(params.gamma, expected)

    def test_pi_pattern(self):
        params, _ = benchmark_params(1)
        for k in range(3):
            for l in range(3):
                expected = [0.8, 0.1, 0.1] if k == l else [0.1, 0.1, 0.8]
                np.testing.assert_array_equal(params.pi[k, l], expected)

    def test_alpha_passthrough(self):
        params, _ = benchmark_params(2)
        np.testing.assert_array_equal(params.alpha, [[0.3, 0.3, 0.4]])


class TestBenchmarkSpecs:
    def test_scenario_one_tables(self):
        params, sub = benchmark_params(1)
        np.testing.assert_array_equal(params.alpha, [[0.3, 0.3, 0.4]])
        np.testing.assert_array_equal(params.pi[0, 0], [0.8, 0.1, 0.1])
        np.testing.assert_array_equal(params.pi[0, 1], [0.1, 0.1, 0.8])
        np.testing.assert_array_equal(params.gamma, [[0.2]])
        np.testing.assert_array_equal(sub, np.zeros(100))

    def test_scenario_two_overlapping_types(self):
        params, sub = benchmark_params(2)
        np.testing.assert_array_equal(params.pi[1, 1], [0.5, 0.45, 0.05])
        np.testing.assert_array_equal(params.pi[1, 2], [0.1, 0.45, 0.45])
        np.testing.assert_array_equal(sub, np.zeros(100))

    def test_scenario_three_structure(self):
        params, sub = benchmark_params(3)
        np.testing.assert_array_equal(np.bincount(sub), [34, 33, 33])
        assert params.gamma[0, 1] == 0.1
        # each subgraph's mixing row excludes exactly one cluster
        np.testing.assert_array_equal(np.diag(params.alpha), [0.0, 0.0, 0.0])
        np.testing.assert_allclose(params.alpha.sum(axis=1), 1.0)

    def test_invalid_scenario_number(self):
        with pytest.raises(ValueError, match="invalid scenario"):
            benchmark_params(4)

    def test_benchmark_scenario_shape(self):
        sample = benchmark_scenario(3, seed=0)
        assert sample.network.n_vertices == 100
        assert sample.network.n_subgraphs == 3
        assert sample.true_labels.min() >= 0
        assert sample.true_labels.max() <= 2


class TestGeneratedSample:
    def test_rejects_wrong_label_length(self):
        sample = benchmark_scenario(1, seed=0)
        with pytest.raises(ValueError, match="length"):
            GeneratedSample(network=sample.network,
                            true_labels=sample.true_labels[:-1],
                            params=sample.params)

    def test_rejects_out_of_range_labels(self):
        sample = benchmark_scenario(1, seed=0)
        bad = np.array(sample.true_labels)
        bad[0] = 99
        with pytest.raises(ValueError,
                           match=re.escape("true label 99 at vertex 0 outside 0..2")):
            GeneratedSample(network=sample.network, true_labels=bad,
                            params=sample.params)

    @pytest.mark.parametrize("shift", [0.6, np.nan])
    def test_rejects_fractional_labels(self, shift):
        # the int64 cast would keep the labels 0.6 above the true ones
        sample = benchmark_scenario(1, seed=0)
        with pytest.raises(ValueError, match="true_labels must contain integers"):
            GeneratedSample(network=sample.network,
                            true_labels=sample.true_labels + shift,
                            params=sample.params)


class TestSampleNetwork:
    def test_same_seed_is_bit_identical(self):
        a = benchmark_scenario(2, seed=5)
        b = benchmark_scenario(2, seed=5)
        np.testing.assert_array_equal(a.network.edge_types, b.network.edge_types)
        np.testing.assert_array_equal(a.true_labels, b.true_labels)

    def test_different_seeds_differ(self):
        a = benchmark_scenario(2, seed=5)
        b = benchmark_scenario(2, seed=6)
        assert not np.array_equal(a.network.edge_types, b.network.edge_types)

    def test_no_self_loops_and_types_in_range(self):
        sample = benchmark_scenario(1, seed=9)
        x = sample.network.edge_types
        assert np.all(np.diag(x) == 0)
        assert x.min() >= 0
        assert x.max() <= 3

    def test_zero_probability_gives_no_edges(self):
        params, sub = scenario_params(alpha=[[0.5, 0.5]], type_probs_within=[1.0],
                                      type_probs_between=[1.0], edge_prob_within=0.0,
                                      edge_prob_between=0.0, subgraph_sizes=[8])
        sample = sample_network(params, sub, 0)
        assert np.count_nonzero(sample.network.edge_types) == 0

    def test_unit_probability_gives_complete_digraph(self):
        params, sub = scenario_params(alpha=[[1.0]], type_probs_within=[1.0],
                                      type_probs_between=[1.0], edge_prob_within=1.0,
                                      edge_prob_between=1.0, subgraph_sizes=[6])
        sample = sample_network(params, sub, 0)
        a = sample.network.edge_types != 0
        assert a.sum() == 6 * 5

    def test_degenerate_mixing_forces_one_cluster(self):
        params = RsmParams(alpha=[[0.0, 1.0, 0.0]], gamma=[[0.3]],
                           pi=np.full((3, 3, 2), 0.5))
        sample = sample_network(params, np.zeros(40, dtype=int), seed=3)
        assert np.all(sample.true_labels == 1)

    def test_rejects_subgraph_labels_out_of_range(self):
        params = RsmParams(alpha=[[1.0]], gamma=[[0.5]], pi=[[[1.0]]])
        with pytest.raises(ValueError,
                           match=re.escape("subgraph label 1 at vertex 1 outside 0..0")):
            sample_network(params, np.array([0, 1]), seed=0)

    @pytest.mark.parametrize("labels", [[0, 1.5, 0.2], [0, 0.7, np.nan]])
    def test_rejects_fractional_subgraph_labels(self, labels):
        params = RsmParams(alpha=[[1.0], [1.0]], gamma=np.full((2, 2), 0.5),
                           pi=[[[1.0]]])
        with pytest.raises(ValueError, match="subgraph_of must contain integers"):
            sample_network(params, np.array(labels), seed=0)

    def test_empty_network(self):
        params = RsmParams(alpha=[[1.0]], gamma=[[0.5]], pi=[[[1.0]]])
        sample = sample_network(params, np.zeros(0, dtype=int), seed=0)
        assert sample.network.n_vertices == 0
        assert sample.true_labels.shape == (0,)


class TestRowBlocks:
    """The sampler draws its uniforms a block of rows at a time; every block
    height gives the sample the one-shot dense sampler gives."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 12), st.integers(1, 3), st.integers(1, 3),
           st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    def test_block_heights_match_the_one_shot_sampler(self, n, n_subgraphs,
                                                      n_clusters, n_types, seed):
        rng = np.random.default_rng(seed)
        params = random_model(rng, n_subgraphs, n_clusters, n_types)
        sub = rng.integers(0, n_subgraphs, size=n)
        expected = oracles.dense_sample(params, sub, seed)
        for rows in sorted({1, 7, max(n, 1)}):
            drawn = rsm.generate._draw(params, sub, np.random.default_rng(seed), rows)
            for got, want in zip(drawn, expected):
                np.testing.assert_array_equal(got, want)
        sample = sample_network(params, sub, seed)
        net = sample.network
        for got, want in zip((net.src, net.dst, net.types, sample.true_labels),
                             expected):
            np.testing.assert_array_equal(got, want)

    def test_blocks_span_the_budget(self, monkeypatch):
        # a budget of 5 uniforms splits 40 vertices into blocks of one row
        params = RsmParams(alpha=[[0.4, 0.6]], gamma=[[0.3]],
                           pi=np.full((2, 2, 3), 1 / 3))
        sub = np.zeros(40, dtype=int)
        whole = sample_network(params, sub, seed=5)
        monkeypatch.setattr(rsm.generate, "_BLOCK_ELEMENTS", 5)
        rows = sample_network(params, sub, seed=5)
        np.testing.assert_array_equal(rows.network.edge_types, whole.network.edge_types)
        np.testing.assert_array_equal(rows.true_labels, whole.true_labels)


class TestSamplingStatistics:
    def test_presence_rate_near_parameter(self):
        # 23 vertices give 506 ordered pairs; 0.06 is a bit over 3 sigma
        # for a binomial proportion at p = 0.8.
        params = RsmParams(alpha=[[1.0]], gamma=[[0.8]], pi=[[[1.0]]])
        sample = sample_network(params, np.zeros(23, dtype=int), seed=2)
        rate = (sample.network.edge_types != 0).sum() / (23 * 22)
        assert abs(rate - 0.8) < 0.06

    def test_block_densities_match_gamma(self):
        sample = benchmark_scenario(3, seed=4)
        a = sample.network.edge_types != 0
        sub = sample.network.subgraph_of
        for r in range(3):
            for s in range(3):
                rows = sub == r
                cols = sub == s
                pairs = rows.sum() * cols.sum() - (rows.sum() if r == s else 0)
                density = a[np.ix_(rows, cols)].sum() / pairs
                expected = 0.2 if r == s else 0.1
                sigma = np.sqrt(expected * (1 - expected) / pairs)
                assert abs(density - expected) < 4 * sigma

    def test_cluster_proportions_match_alpha(self):
        params = RsmParams(alpha=[[0.3, 0.3, 0.4]], gamma=[[0.0]],
                           pi=np.full((3, 3, 1), 1.0))
        sample = sample_network(params, np.zeros(2000, dtype=int), seed=7)
        freq = np.bincount(sample.true_labels, minlength=3) / 2000
        sigma = np.sqrt(0.4 * 0.6 / 2000)
        np.testing.assert_allclose(freq, [0.3, 0.3, 0.4], atol=4 * sigma)

    def test_type_frequencies_match_pi(self):
        # single cluster, so every edge type comes from one distribution
        params = RsmParams(alpha=[[1.0]], gamma=[[0.5]],
                           pi=np.array([[[0.2, 0.3, 0.5]]]))
        sample = sample_network(params, np.zeros(40, dtype=int), seed=11)
        x = sample.network.edge_types
        n_edges = np.count_nonzero(x)
        freq = np.array([(x == c).sum() / n_edges for c in (1, 2, 3)])
        sigma = np.sqrt(0.5 * 0.5 / n_edges)
        np.testing.assert_allclose(freq, [0.2, 0.3, 0.5], atol=4 * sigma)
