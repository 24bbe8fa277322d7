"""Generator correctness: determinism, edge cases, and sampling statistics.

The statistical checks use fixed seeds, so they are deterministic; the
tolerances are three to four standard deviations of the relevant binomial
or multinomial counts.
"""

import numpy as np
import pytest

from rsm import (
    GeneratedSample,
    RsmParams,
    ScenarioSpec,
    TypedNetwork,
    benchmark_scenario,
    benchmark_spec,
    demo_spec,
    expand_scenario,
    sample_network,
)


class TestScenarioSpec:
    def test_dimension_properties(self):
        spec = demo_spec()
        assert spec.n_vertices == 30
        assert spec.n_subgraphs == 2
        assert spec.n_clusters == 3
        assert spec.n_types == 3

    def test_subgraph_labels_are_contiguous(self):
        spec = demo_spec()
        np.testing.assert_array_equal(spec.subgraph_labels(),
                                      np.repeat([0, 1], 15))

    def test_rejects_size_count_mismatch(self):
        with pytest.raises(ValueError, match="size"):
            ScenarioSpec(alpha=[[1.0]], type_probs_within=[1.0],
                         type_probs_between=[1.0], edge_prob_within=0.5,
                         edge_prob_between=0.5, subgraph_sizes=(3, 3))

    def test_rejects_negative_sizes(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ScenarioSpec(alpha=[[1.0]], type_probs_within=[1.0],
                         type_probs_between=[1.0], edge_prob_within=0.5,
                         edge_prob_between=0.5, subgraph_sizes=(-1,))

    def test_rejects_probability_outside_unit_interval(self):
        with pytest.raises(ValueError, match="edge_prob_within"):
            ScenarioSpec(alpha=[[1.0]], type_probs_within=[1.0],
                         type_probs_between=[1.0], edge_prob_within=1.2,
                         edge_prob_between=0.5, subgraph_sizes=(3,))

    def test_rejects_non_stochastic_type_row(self):
        with pytest.raises(ValueError, match="type_probs_within"):
            ScenarioSpec(alpha=[[1.0]], type_probs_within=[0.7, 0.7],
                         type_probs_between=[0.5, 0.5], edge_prob_within=0.5,
                         edge_prob_between=0.5, subgraph_sizes=(3,))


class TestExpandScenario:
    def test_gamma_pattern(self):
        params = expand_scenario(benchmark_spec(3))
        expected = np.full((3, 3), 0.1)
        np.fill_diagonal(expected, 0.2)
        np.testing.assert_array_equal(params.gamma, expected)

    def test_pi_pattern(self):
        spec = benchmark_spec(1)
        params = expand_scenario(spec)
        for k in range(3):
            for l in range(3):
                expected = (spec.type_probs_within if k == l
                            else spec.type_probs_between)
                np.testing.assert_array_equal(params.pi[k, l], expected)

    def test_alpha_passthrough(self):
        spec = benchmark_spec(2)
        params = expand_scenario(spec)
        np.testing.assert_array_equal(params.alpha, spec.alpha)


class TestBenchmarkSpecs:
    def test_scenario_one_tables(self):
        spec = benchmark_spec(1)
        np.testing.assert_array_equal(spec.alpha, [[0.3, 0.3, 0.4]])
        np.testing.assert_array_equal(spec.type_probs_within, [0.8, 0.1, 0.1])
        np.testing.assert_array_equal(spec.type_probs_between, [0.1, 0.1, 0.8])
        assert spec.edge_prob_within == 0.2
        assert spec.edge_prob_between == 0.06
        assert spec.subgraph_sizes == (100,)

    def test_scenario_two_overlapping_types(self):
        spec = benchmark_spec(2)
        np.testing.assert_array_equal(spec.type_probs_within, [0.5, 0.45, 0.05])
        np.testing.assert_array_equal(spec.type_probs_between, [0.1, 0.45, 0.45])
        assert spec.subgraph_sizes == (100,)

    def test_scenario_three_structure(self):
        spec = benchmark_spec(3)
        assert spec.subgraph_sizes == (34, 33, 33)
        assert spec.edge_prob_between == 0.1
        # each subgraph's mixing row excludes exactly one cluster
        np.testing.assert_array_equal(np.diag(spec.alpha), [0.0, 0.0, 0.0])
        np.testing.assert_allclose(spec.alpha.sum(axis=1), 1.0)

    def test_invalid_scenario_number(self):
        with pytest.raises(ValueError, match="invalid scenario"):
            benchmark_spec(4)

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
        with pytest.raises(ValueError, match="0..K-1"):
            GeneratedSample(network=sample.network, true_labels=bad,
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
        spec = ScenarioSpec(alpha=[[0.5, 0.5]], type_probs_within=[1.0],
                            type_probs_between=[1.0], edge_prob_within=0.0,
                            edge_prob_between=0.0, subgraph_sizes=(8,))
        sample = sample_network(expand_scenario(spec), spec.subgraph_labels(), 0)
        assert np.count_nonzero(sample.network.edge_types) == 0

    def test_unit_probability_gives_complete_digraph(self):
        spec = ScenarioSpec(alpha=[[1.0]], type_probs_within=[1.0],
                            type_probs_between=[1.0], edge_prob_within=1.0,
                            edge_prob_between=1.0, subgraph_sizes=(6,))
        sample = sample_network(expand_scenario(spec), spec.subgraph_labels(), 0)
        a = sample.network.edge_types != 0
        assert a.sum() == 6 * 5

    def test_degenerate_mixing_forces_one_cluster(self):
        params = RsmParams(alpha=[[0.0, 1.0, 0.0]], gamma=[[0.3]],
                           pi=np.full((3, 3, 2), 0.5))
        sample = sample_network(params, np.zeros(40, dtype=int), seed=3)
        assert np.all(sample.true_labels == 1)

    def test_rejects_subgraph_labels_out_of_range(self):
        params = RsmParams(alpha=[[1.0]], gamma=[[0.5]], pi=[[[1.0]]])
        with pytest.raises(ValueError, match="subgraph labels"):
            sample_network(params, np.array([0, 1]), seed=0)

    def test_empty_network(self):
        params = RsmParams(alpha=[[1.0]], gamma=[[0.5]], pi=[[[1.0]]])
        sample = sample_network(params, np.zeros(0, dtype=int), seed=0)
        assert sample.network.n_vertices == 0
        assert sample.true_labels.shape == (0,)


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
