"""Discordance distances and the k-medoid initializer."""

import hashlib
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
import rsm.medoids
import rsm.network
from rsm import TypedNetwork, benchmark_scenario, distance_matrix, kmedoid_init

from builders import random_instance


def as_array(d):
    """The N x N array of a :func:`distance_matrix` result in either form."""
    return d.toarray() if isinstance(d, rsm.medoids._Factored) else d


def factored(net):
    """The network's discordance as its factors, whatever the branch rule."""
    return rsm.medoids._Factored(*rsm.medoids._factors(net))


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


def sparse_net():
    """Ten vertices and five edges of two types: vertices 0 and 2 point to
    1 with different types, and 3 -> 4 -> 5 -> 3 is a cycle."""
    return TypedNetwork.from_edges(10, [0, 2, 3, 4, 5], [1, 1, 4, 5, 3], [1, 2, 1, 2, 2],
                                   np.zeros(10, dtype=int), n_types=2, n_subgraphs=1)


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
        np.testing.assert_array_equal(as_array(distance_matrix(net)), expected)
        assert oracles.init_distance(net, 0, 2) == 2

    def test_matches_definition_on_random_networks(self):
        rng = np.random.default_rng(0)
        for _ in range(3):
            net = random_instance(rng, 14, 2, 3, 3).network
            d = as_array(distance_matrix(net))
            for i in range(net.n_vertices):
                for j in range(net.n_vertices):
                    assert d[i, j] == oracles.init_distance(net, i, j)

    def test_symmetry_and_zero_diagonal(self):
        rng = np.random.default_rng(1)
        net = random_instance(rng, 12, 3, 2, 2).network
        d = as_array(distance_matrix(net))
        np.testing.assert_array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)

    def test_absent_edges_contribute_nothing(self):
        # two disconnected vertices are at distance zero from everything
        x = np.zeros((4, 4), dtype=int)
        x[0, 1] = 1
        net = TypedNetwork(x, [0, 0, 0, 0], n_types=2, n_subgraphs=1)
        assert np.all(as_array(distance_matrix(net)) == 0)

    def test_index_out_of_range(self):
        net = distinct_rows_net(3)
        with pytest.raises(ValueError, match="out of range"):
            oracles.init_distance(net, 0, 5)
        with pytest.raises(ValueError, match="out of range"):
            oracles.init_distance(net, -1, 0)

    def test_integer_dtype(self):
        net = distinct_rows_net(4)
        d = as_array(distance_matrix(net))
        assert d.dtype == np.float64
        np.testing.assert_array_equal(d, np.round(d))


class TestMemoryRefusal:
    """The guard counts the bytes of the form :func:`distance_matrix`
    returns, and of the network's typed operator, from N, E and C alone,
    before anything is built.  The operator is counted whether or not the
    network holds it already, so a refusal does not depend on which call
    came first."""

    def test_the_factors_count_their_values_and_indices(self, monkeypatch):
        # N=10, C=2, E=5 keeps the factors (6CE = 60 < N² = 100).  The
        # operator: 2E = 10 values and int32 indices and 2CN + 1 = 41 row
        # pointers, 12 * 10 + 4 * 41 = 284 bytes; agree: 10 entries and 11
        # row pointers, 12 * 10 + 4 * 11 = 164 bytes; differ: 2E(C - 1) = 10
        # entries and 41 row pointers, 284 bytes
        for built in (False, True):
            net = sparse_net()
            if built:
                net._type_operator
            monkeypatch.setattr(rsm.network, "PHYSICAL_MEMORY", 731)
            with pytest.raises(ValueError, match=re.escape(
                    "the discordance matrix of a 10-vertex network takes 0.0 GiB "
                    "(732 bytes), more than the 0.0 GiB of physical memory")):
                distance_matrix(net)
            monkeypatch.setattr(rsm.network, "PHYSICAL_MEMORY", 732)
            assert isinstance(distance_matrix(net), rsm.medoids._Factored)

    def test_the_array_counts_the_product_and_the_array_too(self, monkeypatch):
        # N=10, C=10, E=90 takes the array.  The operator: 12 * 180 + 4 *
        # 201 = 2964 bytes; agree: 12 * 180 + 4 * 11 = 2204; differ: 12 *
        # 1620 + 4 * 201 = 20244; their product as CSR with at most N²
        # entries, 12 * 100 + 4 * 11 = 1244; the array 800
        net = distinct_rows_net(10)
        monkeypatch.setattr(rsm.network, "PHYSICAL_MEMORY", 27456)
        assert isinstance(distance_matrix(net), np.ndarray)
        monkeypatch.setattr(rsm.network, "PHYSICAL_MEMORY", 27455)
        with pytest.raises(ValueError, match=re.escape(
                "the discordance matrix of a 10-vertex network takes 0.0 GiB "
                "(27456 bytes), more than the 0.0 GiB of physical memory")):
            distance_matrix(net)

    @pytest.mark.parametrize("net", [sparse_net(), distinct_rows_net(10)],
                             ids=["factors", "array"])
    def test_refuses_before_building_anything(self, monkeypatch, net):
        def unreachable(net):
            raise AssertionError("the factors were built past the guard")

        monkeypatch.setattr(rsm.medoids, "_factors", unreachable)
        monkeypatch.setattr(TypedNetwork._type_operator, "func", unreachable)
        monkeypatch.setattr(rsm.network, "PHYSICAL_MEMORY", 100)
        with pytest.raises(ValueError, match="more than the 0.0 GiB of physical memory"):
            distance_matrix(net)

    def test_a_sparse_network_too_large_for_the_array_keeps_its_factors(self, monkeypatch):
        # as an array, 100 000 vertices would take 20 N² bytes, 186 GiB;
        # the factors of two edges take 2.0 MB
        n = 100_000
        net = TypedNetwork.from_edges(n, [0, 2], [1, 1], [1, 2], np.zeros(n, dtype=int),
                                      n_types=2, n_subgraphs=1)
        monkeypatch.setattr(rsm.network, "PHYSICAL_MEMORY", 2 ** 30)
        d = distance_matrix(net)
        assert isinstance(d, rsm.medoids._Factored) and d.shape == (n, n)
        # 0 and 2 both point to 1, with different types
        column = np.zeros((n, 1))
        column[2] = 1.0
        product = d @ column
        np.testing.assert_array_equal(np.flatnonzero(product), [0])
        assert product[0, 0] == 1.0


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
    before = as_array(d).copy()
    tau = kmedoid_init(d, n_clusters, seed=seed)
    np.testing.assert_array_equal(as_array(d), before)
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
        d = as_array(distance_matrix(net))
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
        np.testing.assert_array_equal(as_array(distance_matrix(net)), loop_distances(net))
        for n_clusters in (1, 2, net.n_vertices + 2):
            for seed in range(3):
                assert_matches_loop_kmedoids(net, n_clusters, seed)

    def test_sampled_networks(self):
        # planted networks with many tied distances, up to K = N
        rng = np.random.default_rng(5)
        for n_vertices, n_clusters in ((30, 3), (40, 6), (25, 25)):
            net = random_instance(rng, n_vertices, 2, 3, 3).network
            np.testing.assert_array_equal(as_array(distance_matrix(net)),
                                          loop_distances(net))
            for seed in range(2):
                assert_matches_loop_kmedoids(net, n_clusters, seed)


class TestCycles:
    """A run whose (centers, assignment) repeats an earlier round's cycles
    from there on; ``kmedoid_init`` stops at the repeat and returns the
    assignment the round cap reaches, which the loop reference computes by
    running every round up to the cap.  A run that settles is the period-1
    case: it stops at the round that repeats the one before."""

    # (scenario, network seed, K, seed, period, round of the first repeat)
    CASES = [(1, 0, 4, 3, 2, 15), (1, 3, 6, 7, 4, 12),
             (1, 0, 1, 0, 1, 1), (2, 2, 2, 1, 1, 34)]

    @pytest.mark.parametrize("scenario, network_seed, n_clusters, seed, period, repeat",
                             CASES, ids=["period-2", "period-4", "settles-at-1", "settles-at-34"])
    def test_stops_at_the_first_repeat_with_the_capped_labels(
            self, monkeypatch, scenario, network_seed, n_clusters, seed, period, repeat):
        rounds = []
        cluster_sums = rsm.medoids._cluster_sums

        def counted(*args):
            rounds.append(args[1])
            return cluster_sums(*args)

        monkeypatch.setattr(rsm.medoids, "_cluster_sums", counted)
        net = benchmark_scenario(scenario, network_seed).network
        assert_matches_loop_kmedoids(net, n_clusters, seed)
        # one product for the start, then one per round through the repeat
        assert len(rounds) == repeat + 2 < rsm.medoids.MAX_MEDOID_ROUNDS
        np.testing.assert_array_equal(rounds[-1], rounds[-1 - period])
        assert not any(np.array_equal(rounds[-1], r) for r in rounds[-period:-1])


class TestPrecomputedDistances:
    """``kmedoid_init`` reads the discordance matrix and never writes it:
    the same counts given read-only, or as int64, give the same labels."""

    @settings(max_examples=100, deadline=None)
    @given(networks(), st.booleans(), st.integers(1, 11), st.integers(0, 2 ** 32 - 1))
    def test_same_labels_as_without(self, net, no_edges, n_clusters, seed):
        if no_edges:
            net = TypedNetwork(np.zeros((net.n_vertices,) * 2, dtype=np.int64),
                               net.subgraph_of, net.n_types, net.n_subgraphs)
        assert_same_labels_from_any_copy(as_array(distance_matrix(net)), n_clusters, seed)

    @pytest.mark.parametrize("name", sorted(edge_case_networks()))
    def test_edge_cases(self, name):
        net = edge_case_networks()[name]
        d = as_array(distance_matrix(net))
        for n_clusters in (1, 2, net.n_vertices + 2):
            for seed in range(3):
                assert_same_labels_from_any_copy(d, n_clusters, seed)


def assert_same_labels_from_any_copy(d, n_clusters, seed):
    expected = kmedoid_init(d, n_clusters, seed)
    frozen = d.copy()
    frozen.flags.writeable = False
    for given_d in (frozen, d.astype(np.int64)):
        np.testing.assert_array_equal(kmedoid_init(given_d, n_clusters, seed), expected)


@st.composite
def networks_of_any_density(draw, max_vertices=12, max_types=4):
    """Networks from no edges to every pair, so that both forms of the
    discordance occur, with up to three subgraphs, some of them empty."""
    n = draw(st.integers(0, max_vertices))
    n_types = draw(st.integers(1, max_types))
    n_subgraphs = draw(st.integers(1, 3))
    density = draw(st.sampled_from([0.0, 0.05, 0.2, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = np.where(rng.random((n, n)) < density, rng.integers(1, n_types + 1, size=(n, n)), 0)
    labels = draw(arrays(np.int64, n, elements=st.integers(0, n_subgraphs - 1)))
    return TypedNetwork(x, labels, n_types=n_types, n_subgraphs=n_subgraphs)


class TestDerivedAgree:
    """``agree``, the network's typed operator with its rows regrouped by
    vertex, is the matrix that the edge-list scatter of
    ``oracles.agree_scatter`` builds, and the discordance in either form
    multiplies as that reference's factors do.  Every product adds exact
    integers, so the order of the columns within a row does not show."""

    @settings(max_examples=60, deadline=None)
    @given(networks_of_any_density(max_vertices=10, max_types=6), st.integers(1, 3),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_the_scatter(self, net, width, seed):
        reference = oracles.agree_scatter(net)
        agree, differ = rsm.medoids._factors(net)
        assert agree.shape == reference.shape
        assert agree.indices.dtype == agree.indptr.dtype == np.int32
        assert (agree != reference).nnz == 0
        v = np.random.default_rng(seed).integers(0, 2, size=(net.n_vertices, width))
        expected = reference @ (differ @ v.astype(np.float64))
        for keep in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(rsm.medoids, "_keeps_factors", lambda *_: keep)
                d = distance_matrix(net)
            assert isinstance(d, rsm.medoids._Factored) is keep
            np.testing.assert_array_equal(d @ v.astype(np.float64), expected)


class TestDerivedDiffer:
    """``differ``, each row joining one vertex's operator rows of the other
    half under the other types, holds the entries that the edge-list
    scatter of ``oracles.differ_scatter`` writes, and multiplies as it does.
    Its columns ascend within a type only; every product adds exact
    integers, so that order does not show."""

    @staticmethod
    def assert_matches_the_scatter(net, width, seed):
        reference = oracles.differ_scatter(net)
        differ = rsm.medoids._factors(net)[1]
        assert differ.shape == reference.shape
        assert differ.indices.dtype == differ.indptr.dtype == np.int32
        np.testing.assert_array_equal(differ.indptr, reference.indptr)
        assert (differ != reference).nnz == 0
        v = np.random.default_rng(seed).integers(0, 2, size=(net.n_vertices, width))
        np.testing.assert_array_equal(differ @ v.astype(np.float64),
                                      reference @ v.astype(np.float64))

    @settings(max_examples=60, deadline=None)
    @given(networks_of_any_density(max_vertices=10, max_types=6), st.integers(1, 3),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_the_scatter(self, net, width, seed):
        self.assert_matches_the_scatter(net, width, seed)

    @pytest.mark.parametrize("n,n_types,density", [
        (6, 1, 0.5),  # one type: every row of differ is empty
        (6, 3, 0.0),  # no edges
        (0, 2, 0.0),  # no vertices
    ])
    def test_edge_cases(self, n, n_types, density):
        rng = np.random.default_rng(n + n_types)
        x = np.where(rng.random((n, n)) < density,
                     rng.integers(1, n_types + 1, size=(n, n)), 0)
        net = TypedNetwork(x, np.zeros(n, dtype=int), n_types=n_types, n_subgraphs=1)
        assert rsm.medoids._factors(net)[1].nnz == 0
        self.assert_matches_the_scatter(net, 2, 0)


# sha256 of the bytes of every k-medoid start of the 24 paper networks,
# kmedoid_init(distance_matrix(benchmark_scenario(s, r).network), K, seed)
# for s = 1..3, r = 0..7, K = 1..6 and seed = 0..4, in that order: 720
# starts, as the discordance factors scattered from the edge list gave them.
PAPER_STARTS = "5b942e33989a9b930d5cab0765c8da5f4299e685458f0bd644f211d3372a6578"


def test_the_paper_starts_are_pinned():
    digest = hashlib.sha256()
    for scenario in (1, 2, 3):
        for replicate in range(8):
            d = distance_matrix(benchmark_scenario(scenario, replicate).network)
            for n_clusters in range(1, 7):
                for seed in range(5):
                    digest.update(kmedoid_init(d, n_clusters, seed).tobytes())
    assert digest.hexdigest() == PAPER_STARTS


class TestFactoredForm:
    """The factors multiply out to the loop reference's counts, and
    ``kmedoid_init`` gives one labelling from every form of them."""

    @settings(max_examples=150, deadline=None)
    @given(networks_of_any_density(), st.integers(1, 4), st.integers(0, 2 ** 32 - 1))
    def test_products_equal_the_loop(self, net, width, seed):
        loop = loop_distances(net)
        d = factored(net)
        assert d.shape == loop.shape
        np.testing.assert_array_equal(d.toarray(), loop)
        v = np.random.default_rng(seed).integers(-5, 6, size=(net.n_vertices, width))
        np.testing.assert_array_equal(d @ v.astype(np.float64), loop @ v)

    @settings(max_examples=100, deadline=None)
    @given(networks_of_any_density(), st.integers(1, 14), st.integers(0, 2 ** 32 - 1))
    def test_every_form_gives_the_same_labels(self, net, n_clusters, seed):
        expected = kmedoid_init(loop_distances(net), n_clusters, seed)
        labels = oracles.kmedoid_labels(net, n_clusters, seed)
        np.testing.assert_array_equal(expected.argmax(axis=1), np.array(labels, dtype=int))
        d = factored(net)
        for given_d in (d, d.toarray()):
            np.testing.assert_array_equal(kmedoid_init(given_d, n_clusters, seed), expected)
        for keep in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(rsm.medoids, "_keeps_factors", lambda *_: keep)
                forced = distance_matrix(net)
            assert isinstance(forced, rsm.medoids._Factored) is keep
            np.testing.assert_array_equal(kmedoid_init(forced, n_clusters, seed), expected)

    def test_a_paper_network_takes_the_array(self):
        # N=100, E=2029, C=3: 6CE is 3.7 N²
        net = benchmark_scenario(1, 0).network
        assert isinstance(distance_matrix(net), np.ndarray)

    def test_a_sparse_network_keeps_its_factors(self):
        # 600 vertices with about 20 out-edges each and three types, the
        # shape of the init benchmark's input: 6CE is about 0.6 N²
        rng = np.random.default_rng(0)
        x = np.where(rng.random((600, 600)) < 1 / 30, rng.integers(1, 4, size=(600, 600)), 0)
        net = TypedNetwork(x, np.zeros(600, dtype=int), n_types=3, n_subgraphs=1)
        d = distance_matrix(net)
        assert isinstance(d, rsm.medoids._Factored)
        for seed in range(2):
            np.testing.assert_array_equal(kmedoid_init(d, 3, seed),
                                          kmedoid_init(d.toarray(), 3, seed))


def test_import_and_fit_leave_sparse_linalg_unloaded(tmp_path):
    # importing rsm, generating, evaluating and the file layers need neither
    # scipy.special nor scipy.sparse, about 20 MB of resident memory and a
    # quarter of a second of start-up between them; the first fit loads
    # both.  scipy.sparse.linalg alone adds about 8 MB more, and fits on a
    # network of either form must not load it
    code = textwrap.dedent(f"""
        import contextlib, io, json, sys
        import numpy as np
        import rsm, rsm.cli
        from rsm.io import load_network, write_network_file

        def loaded():
            print(*(name in sys.modules for name in
                    ("scipy.special", "scipy.sparse", "scipy.sparse.linalg")))

        out = {str(tmp_path)!r}
        with open(out + "/params.json", "w") as f:
            json.dump({{"alpha": [[0.7, 0.3]], "gamma": [[0.5]],
                       "pi": [[[0.6, 0.4], [0.1, 0.9]], [[0.3, 0.7], [0.8, 0.2]]],
                       "subgraph_sizes": [9]}}, f)
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["generate", "--scenario", "1", "--seed", "0", "--out", out + "/s1"],
                         ["generate", "--params", out + "/params.json", "--seed", "0",
                          "--out", out + "/p"],
                         ["eval", out + "/s1/true_labels.txt", out + "/s1/true_labels.txt"]):
                assert rsm.cli.main(argv) == 0
        net = load_network(out + "/s1/network.txt", out + "/s1/partition.txt")
        assert rsm.validate_network(net).ok
        write_network_file(out + "/copy.txt", net)
        rsm.PriorHyperparams.jeffreys(net.n_subgraphs, 3, net.n_types)
        loaded()
        sparse = rsm.TypedNetwork.from_edges(12, [0, 2, 4], [1, 1, 5], [1, 2, 1],
                                             np.zeros(12, dtype=int), 2, 1)
        for fitted in (sparse, net):
            rsm.fit(fitted, rsm.FitConfig(n_clusters=2, n_restarts=2, seed=0))
        loaded()
    """)
    src = str(Path(rsm.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.splitlines() == ["False False False", "True True False"]
