"""Generator correctness: determinism, edge cases, and sampling statistics.

The statistical checks use fixed seeds, so they are deterministic; the
tolerances are three to four standard deviations of the relevant binomial
or multinomial counts.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles

import rsm.generate
import rsm.network
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
from rsm.generate import labels_from_sizes


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


class TestSampleMemory:
    """``sample_network`` counts, for each expected edge (gamma times each
    block's ordered pairs), 48 bytes of edge list and its copy, and for each
    edge of the type step's largest chunk, at most 2**20, (24 + 8 C) bytes
    of temporaries, and passes the sum to the memory rule before it draws
    anything."""

    # 2 x 4 vertices: 12 ordered pairs in each diagonal block and 16 in each
    # other, so 0.5 * 24 + 0.25 * 32 = 20 expected edges, all in one chunk;
    # one type, so 48 + 24 + 8 = 80 bytes each
    params = RsmParams(alpha=[[1.0], [1.0]], gamma=[[0.5, 0.25], [0.25, 0.5]], pi=[[[1.0]]])
    sub = np.repeat([0, 1], 4)

    def test_accepted_at_the_exact_figure_and_refused_a_byte_below(self, monkeypatch):
        monkeypatch.setattr(rsm.network, "PHYSICAL_MEMORY", 20 * 80)
        assert sample_network(self.params, self.sub, 0).network.n_vertices == 8

        def unreachable(*args, **kwargs):
            raise AssertionError("the sample was drawn past the rule")

        monkeypatch.setattr(rsm.generate, "_draw", unreachable)
        monkeypatch.setattr(rsm.network, "PHYSICAL_MEMORY", 20 * 80 - 1)
        with pytest.raises(ValueError, match="^" + re.escape(
                "a sample of about 20 edges on 8 vertices takes 0.0 GiB (1600 bytes), "
                "more than the 0.0 GiB of physical memory")):
            sample_network(self.params, self.sub, 0)

    def test_the_peak_stays_under_the_count(self, monkeypatch):
        # the files benchmark's shape: 3 x 1000 vertices, about 30 000
        # edges, three types; the count is (48 + 48) bytes per edge
        params = RsmParams(alpha=np.full((3, 3), 1 / 3),
                           gamma=np.where(np.eye(3, dtype=bool), 0.006, 0.002),
                           pi=np.full((3, 3, 3), 1 / 3))
        counted = []
        refuse = rsm.generate._refuse_past_memory
        monkeypatch.setattr(rsm.generate, "_refuse_past_memory",
                            lambda size, what: counted.append(size) or refuse(size, what))
        tracemalloc.start()
        try:
            sample = sample_network(params, np.repeat([0, 1, 2], 1000), 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 29_000 < len(sample.network.src) < 31_000
        assert counted == [pytest.approx(96 * 29_982, abs=1)]
        assert peak < counted[0]

    def test_refuses_before_drawing(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the sample was drawn past the rule")

        monkeypatch.setattr(rsm.generate, "_draw", unreachable)
        monkeypatch.setattr(rsm.network, "PHYSICAL_MEMORY", 2 ** 30)
        params = RsmParams(alpha=[[1.0]], gamma=[[1.0]], pi=[[[1.0]]])
        with pytest.raises(ValueError, match=re.escape(
                "a sample of about 9999900000 edges on 100000 vertices takes 447.1 GiB "
                "(480028754432 bytes), more than the 1.0 GiB of physical memory")):
            sample_network(params, np.zeros(100_000, dtype=int), 0)


class TestLabelsMemory:
    """``labels_from_sizes`` passes the 8 N bytes of its labels to the
    memory rule before it allocates them."""

    def test_accepted_at_the_exact_figure_and_refused_a_byte_below(self, monkeypatch):
        monkeypatch.setattr(rsm.network, "PHYSICAL_MEMORY", 8 * 6)
        assert labels_from_sizes([2, 0, 4], 3).tolist() == [0, 0, 2, 2, 2, 2]
        monkeypatch.setattr(rsm.network, "PHYSICAL_MEMORY", 8 * 6 - 1)
        with pytest.raises(ValueError, match="^" + re.escape(
                "the subgraph labels of 6 vertices takes 0.0 GiB (48 bytes), "
                "more than the 0.0 GiB of physical memory")):
            labels_from_sizes([2, 0, 4], 3)

    def test_refuses_before_allocating(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the labels were allocated past the rule")

        monkeypatch.setattr(np, "repeat", unreachable)
        monkeypatch.setattr(rsm.network, "PHYSICAL_MEMORY", 2 ** 30)
        with pytest.raises(ValueError, match="^" + re.escape(
                "the subgraph labels of 1000000000000 vertices takes 7450.6 GiB "
                "(8000000000000 bytes), more than the 1.0 GiB of physical memory")):
            labels_from_sizes([10 ** 12], 1)


# A three-subgraph, two-cluster, three-type model on 14 vertices whose
# subgraph labels interleave, for the distribution checks below.
MODEL = RsmParams(
    alpha=[[0.2, 0.8], [0.5, 0.5], [0.9, 0.1]],
    gamma=[[0.3, 0.1, 0.6], [0.5, 0.2, 0.05], [0.15, 0.4, 0.25]],
    pi=[[[0.6, 0.3, 0.1], [0.1, 0.2, 0.7]], [[0.3, 0.3, 0.4], [0.8, 0.1, 0.1]]])
MODEL_SUBGRAPHS = np.random.default_rng(0).permutation(np.repeat([0, 1, 2], [6, 3, 5]))
SEEDS = range(400)


def block_pairs(sub, n_subgraphs):
    """Ordered pairs without self-loops between each pair of subgraphs."""
    sizes = np.bincount(sub, minlength=n_subgraphs)
    return np.outer(sizes, sizes) - np.diag(sizes)


def assert_within(value, mean, variance, what):
    """``value`` within four standard deviations of ``mean``."""
    assert abs(value - mean) <= 4 * np.sqrt(variance), (what, value, mean)


class TestDistribution:
    """Over many seeds, the sampler's block edge counts, edge types and
    memberships follow the model, with fixed tolerances of four standard
    deviations.  ``oracles.dense_sample``, which draws one uniform per
    ordered pair, passes the same checks, and so does the sampler when it
    splits every block into chunks of rows."""

    @pytest.fixture(scope="class", params=["sampler", "dense reference", "row chunks"])
    def draws(self, request):
        def sample(seed):
            drawn = sample_network(MODEL, MODEL_SUBGRAPHS, seed)
            net = drawn.network
            return net.src, net.dst, net.types, drawn.true_labels

        with pytest.MonkeyPatch.context() as patch:
            if request.param == "row chunks":
                patch.setattr(rsm.generate, "_CHUNK_PAIRS", 4)
            if request.param == "dense reference":
                return [oracles.dense_sample(MODEL, MODEL_SUBGRAPHS, seed) for seed in SEEDS]
            return [sample(seed) for seed in SEEDS]

    def test_block_edge_counts_are_binomial(self, draws):
        sub = MODEL_SUBGRAPHS
        counts = np.array([np.bincount(sub[src] * 3 + sub[dst], minlength=9)
                           for src, dst, _, _ in draws]).reshape(len(draws), 3, 3)
        pairs, p = block_pairs(sub, 3), MODEL.gamma
        mean, variance = pairs * p, pairs * p * (1 - p)
        excess_kurtosis = (1 - 6 * p * (1 - p)) / variance
        m = len(draws)
        for r in range(3):
            for q in range(3):
                block = counts[:, r, q]
                assert_within(block.mean(), mean[r, q], variance[r, q] / m, ("mean", r, q))
                assert_within(block.var(ddof=1), variance[r, q],
                              variance[r, q] ** 2 * (2 / (m - 1) + excess_kurtosis[r, q] / m),
                              ("variance", r, q))

    def test_types_follow_pi_per_cluster_pair(self, draws):
        counts = np.zeros((2, 2, 3))
        for src, dst, types, z in draws:
            np.add.at(counts, (z[src], z[dst], types - 1), 1)
        for k in range(2):
            for l in range(2):
                total = counts[k, l].sum()
                for c, p in enumerate(MODEL.pi[k, l]):
                    assert_within(counts[k, l, c] / total, p, p * (1 - p) / total, (k, l, c))

    def test_memberships_follow_alpha(self, draws):
        z = np.array([labels for _, _, _, labels in draws])
        for r in range(3):
            members = z[:, MODEL_SUBGRAPHS == r].ravel()
            for k, p in enumerate(MODEL.alpha[r]):
                assert_within(np.mean(members == k), p, p * (1 - p) / len(members), (r, k))


class CountingGenerator:
    """A generator that records the arguments of its binomial and uniform
    draws and passes every call on."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.binomial_pairs, self.uniform_sizes = [], []

    def binomial(self, n, p):
        self.binomial_pairs.append(n)
        return self.rng.binomial(n, p)

    def random(self, size):
        self.uniform_sizes.append(size)
        return self.rng.random(size)

    def choice(self, *args, **kwargs):
        return self.rng.choice(*args, **kwargs)


class TestEdgeSampler:
    @settings(max_examples=80, deadline=None)
    @given(sizes=st.lists(st.integers(0, 5), min_size=1, max_size=4),
           n_clusters=st.integers(1, 3), n_types=st.integers(1, 3),
           edge_probs=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0, 1)),
                               min_size=16, max_size=16),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(sizes=[0], n_clusters=2, n_types=2, edge_probs=[0.5] * 16, seed=0)
    @example(sizes=[1, 0, 1], n_clusters=1, n_types=1, edge_probs=[1.0] * 16, seed=0)
    def test_edges_are_distinct_sorted_and_follow_gamma_support(
            self, sizes, n_clusters, n_types, edge_probs, seed):
        rng = np.random.default_rng(seed)
        s = len(sizes)
        params = RsmParams(alpha=rng.dirichlet(np.ones(n_clusters), size=s),
                           gamma=np.reshape(edge_probs[:s * s], (s, s)),
                           pi=rng.dirichlet(np.ones(n_types), size=(n_clusters,) * 2))
        # subgraph labels in no particular order, with empty and size-1 subgraphs
        sub = rng.permutation(np.repeat(np.arange(s), sizes))
        n = len(sub)
        src, dst, types, z = rsm.generate._draw(params, sub, np.random.default_rng(seed))
        keys = src * n + dst
        assert np.all(np.diff(keys) > 0)
        assert np.all(src != dst)
        assert np.all((types >= 1) & (types <= n_types))
        assert z.shape == (n,) and np.all((z >= 0) & (z < n_clusters))
        counts = np.zeros((s, s), dtype=np.int64)
        np.add.at(counts, (sub[src], sub[dst]), 1)
        pairs = block_pairs(sub, s)
        np.testing.assert_array_equal(counts[params.gamma == 0], 0)
        np.testing.assert_array_equal(counts[params.gamma == 1], pairs[params.gamma == 1])
        assert np.all(counts <= pairs)

        sample = sample_network(params, sub, seed)
        for got, want in zip((sample.network.src, sample.network.dst,
                              sample.network.types, sample.true_labels), (src, dst, types, z)):
            np.testing.assert_array_equal(got, want)

    def test_row_chunks_split_large_blocks(self, monkeypatch):
        # a budget of 12 pairs draws subgraph 0's six rows two at a time
        # within it (5 pairs a row) and four at a time into subgraph 1 (3 a
        # row), and subgraph 1's three rows two at a time into subgraph 0
        # (6 a row); its own block of 6 pairs is drawn whole
        monkeypatch.setattr(rsm.generate, "_CHUNK_PAIRS", 12)
        params = RsmParams(alpha=[[1.0], [1.0]], gamma=[[0.5, 0.5], [0.5, 1.0]],
                           pi=[[[0.5, 0.5]]])
        sub = np.repeat([0, 1], [6, 3])
        rng = CountingGenerator(3)
        src, dst, _, _ = rsm.generate._draw(params, sub, rng)
        assert rng.binomial_pairs == [10, 10, 10, 12, 6, 12, 6, 6]
        # memberships in one draw of 9, then the types 12 at a time
        edges = len(src)
        assert rng.uniform_sizes == [9] + [12] * (edges // 12) + [edges % 12] * (edges % 12 > 0)
        block = (sub[src] == 1) & (sub[dst] == 1)
        assert block.sum() == 6


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
