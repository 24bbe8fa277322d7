"""Discordance distances and the k-medoid initializer."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from rsm import TypedNetwork, distance_matrix, kmedoid_init

from builders import random_instance


def two_block_net(block=6):
    """All ordered pairs connected; type 1 inside a block, type 2 across.

    Same-block vertices then agree on every shared connection (distance 0)
    while cross-block vertices disagree on all of them, so the distance
    matrix separates the blocks perfectly.
    """
    n = 2 * block
    group = np.repeat([0, 1], block)
    x = np.where(group[:, None] == group[None, :], 1, 2)
    np.fill_diagonal(x, 0)
    net = TypedNetwork(x, np.zeros(n, dtype=int), n_types=2, n_subgraphs=1)
    return net, group


def distinct_rows_net(n=5):
    """Vertex i sends type i+1 to everyone, so all distances equal n - 2."""
    x = np.tile(np.arange(1, n + 1)[:, None], (1, n))
    np.fill_diagonal(x, 0)
    return TypedNetwork(x, np.zeros(n, dtype=int), n_types=n, n_subgraphs=1)


class TestInitDistance:
    def test_hand_worked_example(self):
        x = np.array([[0, 1, 2],
                      [2, 0, 1],
                      [0, 3, 0]])
        net = TypedNetwork(x, [0, 0, 0], n_types=3, n_subgraphs=1)
        expected = np.array([[0, 1, 2],
                             [1, 0, 1],
                             [2, 1, 0]])
        np.testing.assert_array_equal(distance_matrix(net), expected)
        assert oracles.init_distance(net, 0, 2) == 2

    def test_matches_definition_on_random_networks(self):
        rng = np.random.default_rng(0)
        for _ in range(3):
            net = random_instance(rng, 14, 2, 3, 3).network
            d = distance_matrix(net)
            for i in range(net.n_vertices):
                for j in range(net.n_vertices):
                    assert d[i, j] == oracles.init_distance(net, i, j)

    def test_symmetry_and_zero_diagonal(self):
        rng = np.random.default_rng(1)
        net = random_instance(rng, 12, 3, 2, 2).network
        d = distance_matrix(net)
        np.testing.assert_array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)

    def test_absent_edges_contribute_nothing(self):
        # two disconnected vertices are at distance zero from everything
        x = np.zeros((4, 4), dtype=int)
        x[0, 1] = 1
        net = TypedNetwork(x, [0, 0, 0, 0], n_types=2, n_subgraphs=1)
        assert np.all(distance_matrix(net) == 0)

    def test_index_out_of_range(self):
        net = distinct_rows_net(3)
        with pytest.raises(ValueError, match="out of range"):
            oracles.init_distance(net, 0, 5)
        with pytest.raises(ValueError, match="out of range"):
            oracles.init_distance(net, -1, 0)

    def test_integer_dtype(self):
        net = distinct_rows_net(4)
        d = distance_matrix(net)
        assert d.dtype == np.float64
        np.testing.assert_array_equal(d, np.round(d))


class TestKmedoidInit:
    def test_returns_hard_one_hot_rows(self):
        rng = np.random.default_rng(2)
        net = random_instance(rng, 15, 2, 3, 2).network
        tau = kmedoid_init(distance_matrix(net), 3, seed=0)
        assert tau.shape == (15, 3)
        np.testing.assert_array_equal(tau.sum(axis=1), np.ones(15))
        assert set(np.unique(tau)) <= {0.0, 1.0}

    def test_single_cluster(self):
        net = distinct_rows_net(4)
        tau = kmedoid_init(distance_matrix(net), 1, seed=0)
        np.testing.assert_array_equal(tau, np.ones((4, 1)))

    def test_deterministic_in_seed(self):
        rng = np.random.default_rng(3)
        net = random_instance(rng, 20, 1, 3, 3).network
        d = distance_matrix(net)
        np.testing.assert_array_equal(kmedoid_init(d, 3, seed=7),
                                      kmedoid_init(d, 3, seed=7))

    def test_empty_network(self):
        net = TypedNetwork(np.zeros((0, 0), dtype=int), np.zeros(0, dtype=int),
                           n_types=1, n_subgraphs=1)
        tau = kmedoid_init(distance_matrix(net), 4, seed=0)
        assert tau.shape == (0, 4)

    def test_more_clusters_than_vertices(self):
        net = distinct_rows_net(5)
        tau = kmedoid_init(distance_matrix(net), 8, seed=1)
        assert tau.shape == (5, 8)
        np.testing.assert_array_equal(tau.sum(axis=1), np.ones(5))
        # only five clusters can be seeded, so at least three stay empty
        assert (tau.sum(axis=0) > 0).sum() <= 5

    def test_separated_vertices_get_singleton_clusters(self):
        # strictly positive pairwise distances and K = N: every vertex
        # keeps its own cluster
        net = distinct_rows_net(5)
        tau = kmedoid_init(distance_matrix(net), 5, seed=4)
        sizes = tau.sum(axis=0)
        np.testing.assert_array_equal(np.sort(sizes), np.ones(5))

    def test_rejects_nonpositive_cluster_count(self):
        with pytest.raises(ValueError, match="n_clusters"):
            kmedoid_init(distance_matrix(distinct_rows_net(3)), 0, seed=0)

    @pytest.mark.parametrize("shape", [(5, 4), (25,), (5, 5, 1), ()])
    def test_rejects_distances_of_another_shape(self, shape):
        message = (r"distances must be a square matrix, got shape "
                   + re.escape(str(shape)))
        with pytest.raises(ValueError, match=message):
            kmedoid_init(np.zeros(shape), 2, seed=0)

    def test_empty_network_checks_distances_too(self):
        assert kmedoid_init(np.zeros((0, 0)), 2, seed=0).shape == (0, 2)
        with pytest.raises(ValueError, match=r"got shape \(0, 1\)"):
            kmedoid_init(np.zeros((0, 1)), 2, seed=0)

    def test_rejects_a_network(self):
        # the network itself, where its discordance matrix belongs
        with pytest.raises(ValueError, match=r"square matrix, got shape \(\)"):
            kmedoid_init(distinct_rows_net(3), 2, seed=0)

    def test_recovers_two_blocks_from_any_seed(self):
        net, group = two_block_net(6)
        d = distance_matrix(net)
        expected = np.where(group[:, None] == group[None, :], 0, 20)
        np.testing.assert_array_equal(d, expected)
        for seed in range(15):
            labels = np.argmax(kmedoid_init(d, 2, seed=seed), axis=1)
            # exact recovery up to cluster naming
            assert len(set(zip(group, labels))) == 2


@st.composite
def networks(draw, max_vertices=9):
    """Small networks whose entries include absent edges, every type and
    arbitrary diagonal values."""
    n = draw(st.integers(0, max_vertices))
    n_types = draw(st.integers(1, 4))
    x = draw(arrays(np.int64, (n, n), elements=st.integers(0, n_types)))
    if n:
        diagonal = draw(arrays(np.int64, n, elements=st.integers(-2, n_types + 2)))
        np.fill_diagonal(x, diagonal)
    return TypedNetwork(x, np.zeros(n, dtype=int), n_types=n_types, n_subgraphs=1)


def loop_distances(net):
    n = net.n_vertices
    return np.array([[oracles.init_distance(net, i, j) for j in range(n)]
                     for i in range(n)], dtype=np.int64).reshape(n, n)


def assert_matches_loop_kmedoids(net, n_clusters, seed):
    d = distance_matrix(net)
    before = d.copy()
    tau = kmedoid_init(d, n_clusters, seed=seed)
    np.testing.assert_array_equal(d, before)
    n = net.n_vertices
    expected = np.zeros((n, n_clusters))
    expected[np.arange(n), oracles.kmedoid_labels(net, n_clusters, seed)] = 1.0
    np.testing.assert_array_equal(tau, expected)


def edge_case_networks():
    """Named shapes that random draws reach only by luck."""
    def net(x, n_types):
        x = np.asarray(x, dtype=np.int64)
        return TypedNetwork(x, np.zeros(len(x), dtype=int), n_types=n_types,
                            n_subgraphs=1)

    rng = np.random.default_rng(11)
    diagonal = rng.integers(0, 4, size=(6, 6))
    np.fill_diagonal(diagonal, [1, 2, 3, 9, -1, 2])
    return {
        "empty": net(np.zeros((0, 0)), 2),
        "single_vertex": net([[3]], 2),
        "no_edges": net(np.zeros((5, 5)), 3),
        "one_type": net(rng.integers(0, 2, size=(7, 7)), 1),
        "nonzero_diagonal": net(diagonal, 3),
    }


class TestAgainstLoopReference:
    @settings(max_examples=150, deadline=None)
    @given(networks())
    def test_distance_matrix_equals_loop(self, net):
        d = distance_matrix(net)
        assert d.dtype == np.float64
        np.testing.assert_array_equal(d, np.round(d))
        np.testing.assert_array_equal(d, loop_distances(net))

    @settings(max_examples=100, deadline=None)
    @given(networks(), st.integers(1, 11), st.integers(0, 2 ** 32 - 1))
    def test_kmedoid_init_equals_loop(self, net, n_clusters, seed):
        assert_matches_loop_kmedoids(net, n_clusters, seed)

    @pytest.mark.parametrize("name", sorted(edge_case_networks()))
    def test_edge_cases(self, name):
        net = edge_case_networks()[name]
        np.testing.assert_array_equal(distance_matrix(net), loop_distances(net))
        for n_clusters in (1, 2, net.n_vertices + 2):
            for seed in range(3):
                assert_matches_loop_kmedoids(net, n_clusters, seed)

    def test_sampled_networks(self):
        # planted networks with many tied distances, up to K = N
        rng = np.random.default_rng(5)
        for n_vertices, n_clusters in ((30, 3), (40, 6), (25, 25)):
            net = random_instance(rng, n_vertices, 2, 3, 3).network
            np.testing.assert_array_equal(distance_matrix(net), loop_distances(net))
            for seed in range(2):
                assert_matches_loop_kmedoids(net, n_clusters, seed)


class TestPrecomputedDistances:
    """``kmedoid_init`` reads the discordance matrix and never writes it:
    the same counts given read-only, or as int64, give the same labels."""

    @settings(max_examples=100, deadline=None)
    @given(networks(), st.booleans(), st.integers(1, 11), st.integers(0, 2 ** 32 - 1))
    def test_same_labels_as_without(self, net, no_edges, n_clusters, seed):
        if no_edges:
            net = TypedNetwork(np.zeros((net.n_vertices,) * 2, dtype=np.int64),
                               net.subgraph_of, net.n_types, net.n_subgraphs)
        assert_same_labels_from_any_copy(distance_matrix(net), n_clusters, seed)

    @pytest.mark.parametrize("name", sorted(edge_case_networks()))
    def test_edge_cases(self, name):
        net = edge_case_networks()[name]
        d = distance_matrix(net)
        for n_clusters in (1, 2, net.n_vertices + 2):
            for seed in range(3):
                assert_same_labels_from_any_copy(d, n_clusters, seed)


def assert_same_labels_from_any_copy(d, n_clusters, seed):
    expected = kmedoid_init(d, n_clusters, seed)
    frozen = d.copy()
    frozen.flags.writeable = False
    for given_d in (frozen, d.astype(np.int64)):
        np.testing.assert_array_equal(kmedoid_init(given_d, n_clusters, seed), expected)
