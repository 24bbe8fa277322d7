"""The edge list behind ``TypedNetwork``, checked against the matrix it
expands to.

Random dense matrices (including N=0, C=1, networks without edges, empty
subgraphs, nonzero diagonals and types outside ``1..C``) are turned into
networks from their off-diagonal nonzeros, listed in any order; the edge
list, the rebuilt matrix, the presence counts, the refusal of invalid input
and a file round trip must all agree with what the matrix says.
``TypedNetwork.from_edges`` must refuse an edge list that no matrix could
give, naming the pair.
"""

import re
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from builders import dense_inputs, dense_network, refused

from rsm import PriorHyperparams, TypedNetwork, m_step_gamma, validate_network
from rsm.io import read_network_file, write_network_file


def off_diagonal(x):
    out = np.array(x, copy=True)
    if out.size:
        np.fill_diagonal(out, 0)
    return out


class TestEdgeListAgainstDenseInput:
    @settings(max_examples=100, deadline=None)
    @given(dense_inputs(valid=True), st.randoms(use_true_random=False))
    def test_edges_in_any_order_are_kept_in_row_major_order(self, data, random):
        x, sub, n_types, n_subgraphs = data
        n = len(x)
        expected = [(i, j, x[i, j]) for i in range(n) for j in range(n)
                    if i != j and x[i, j] != 0]
        edges = random.sample(expected, len(expected))
        src, dst, types = (np.array([e[f] for e in edges], dtype=np.int64) for f in range(3))
        net = TypedNetwork.from_edges(n, src, dst, types, sub, n_types, n_subgraphs)
        assert list(zip(net.src.tolist(), net.dst.tolist(),
                        net.types.tolist())) == expected

    @settings(max_examples=100, deadline=None)
    @given(dense_inputs(valid=True))
    def test_edge_types_is_the_off_diagonal_part(self, data):
        x, sub, n_types, n_subgraphs = data
        rebuilt = dense_network(x, sub, n_types, n_subgraphs).edge_types
        assert rebuilt.dtype == np.int64
        np.testing.assert_array_equal(rebuilt, off_diagonal(x))

    @settings(max_examples=100, deadline=None)
    @given(dense_inputs(valid=True), st.sampled_from([0.5, 1.0, 3.0]))
    def test_presence_update_equals_loop_counts(self, data, prior):
        x, sub, n_types, n_subgraphs = data
        net = dense_network(x, sub, n_types, n_subgraphs)
        priors = PriorHyperparams.constant(n_subgraphs, 2, n_types, prior)
        a, b = m_step_gamma(net, priors)
        present, absent = oracles.presence_counts(x, sub, n_subgraphs)
        np.testing.assert_array_equal(a, priors.a0 + present)
        np.testing.assert_array_equal(b, priors.b0 + absent)

    @settings(max_examples=150, deadline=None)
    @given(dense_inputs())
    def test_violations_equal_the_dense_scan(self, data):
        # construction raises exactly when the scan finds violations, and
        # names the first; a network it accepts reports none
        x, sub, n_types, n_subgraphs = data
        expected = oracles.validation_violations(x, sub, n_types, n_subgraphs)
        if expected:
            with refused(expected[0]):
                dense_network(x, sub, n_types, n_subgraphs)
        else:
            report = validate_network(dense_network(x, sub, n_types, n_subgraphs))
            assert report.ok and report.violations == ()


class TestFileRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(dense_inputs(valid=True))
    def test_write_then_read_reproduces_the_edge_list(self, data):
        x, sub, n_types, n_subgraphs = data
        net = dense_network(x, sub, n_types, n_subgraphs)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "network.txt"
            write_network_file(path, net)
            n, s, c, src, dst, types = read_network_file(path)
        assert (n, s, c) == (net.n_vertices, n_subgraphs, n_types)
        for got, want in zip((src, dst, types), (net.src, net.dst, net.types)):
            np.testing.assert_array_equal(got, want)


def same_network(a, b):
    for name in ("src", "dst", "types", "subgraph_of"):
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert getattr(a, name).dtype == np.int64
        assert not getattr(a, name).flags.writeable
    assert (a.n_vertices, a.n_types, a.n_subgraphs) == (b.n_vertices, b.n_types,
                                                        b.n_subgraphs)


class TestFromEdges:
    @settings(max_examples=100, deadline=None)
    @given(dense_inputs(valid=True), st.randoms(use_true_random=False))
    def test_any_edge_order_gives_the_dense_network(self, data, random):
        x, sub, n_types, n_subgraphs = data
        dense = dense_network(x, sub, n_types, n_subgraphs)
        order = list(range(len(dense.src)))
        random.shuffle(order)
        built = TypedNetwork.from_edges(len(x), dense.src[order], dense.dst[order],
                                        dense.types[order], sub, n_types, n_subgraphs)
        same_network(built, dense)

    def test_takes_lists(self):
        net = TypedNetwork.from_edges(3, [2, 0], [0, 1], [1, 2], [0, 0, 1], 2, 2)
        for name, want in (("src", [0, 2]), ("dst", [1, 0]), ("types", [2, 1]),
                           ("subgraph_of", [0, 0, 1])):
            np.testing.assert_array_equal(getattr(net, name), want)
            assert getattr(net, name).dtype == np.int64
            assert not getattr(net, name).flags.writeable
        assert (net.n_vertices, net.n_types, net.n_subgraphs) == (3, 2, 2)

    def test_no_edges(self):
        net = TypedNetwork.from_edges(0, [], [], [], [], 1, 1)
        assert net.n_vertices == 0 and net.edge_types.shape == (0, 0)
        assert net.src.shape == net.dst.shape == net.types.shape == (0,)

    @pytest.mark.parametrize("src,dst,types,message", [
        ([0, 3], [1, 0], [1, 1], "edge (3, 0) has a vertex outside 0..2"),
        ([0, 1], [1, -1], [1, 1], "edge (1, -1) has a vertex outside 0..2"),
        ([0, 2], [1, 2], [1, 1], "edge (2, 2) is a self-loop"),
        ([1, 0, 1], [0, 1, 0], [1, 2, 2], "edge (1, 0) is listed twice"),
        ([0, 1], [2, 0], [1, 0], "invalid network: edge type 0 at (1, 0) outside 1..2"),
        ([0, 1], [2, 0], [3, 1], "invalid network: edge type 3 at (0, 2) outside 1..2"),
        ([0, 1], [2, 0], [1, -1], "invalid network: edge type -1 at (1, 0) outside 1..2"),
        ([0, 1], [2], [1, 1], "src, dst and types must be equal-length vectors"),
        ([[0, 1]], [[2, 0]], [[1, 1]], "src, dst and types must be equal-length vectors"),
        ([0, 1], [2.5, 0], [1, 1], "dst must contain integers"),
        ([0, 1], [2, 0], [1, np.nan], "types must contain integers"),
    ])
    def test_refusals_name_the_pair(self, src, dst, types, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            TypedNetwork.from_edges(3, src, dst, types, [0, 0, 0], 2, 1)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                 .filter(lambda e: e[0] != e[1]), min_size=1, max_size=20),
        st.lists(st.integers(0, 20), min_size=1, max_size=4))),
        st.randoms(use_true_random=False))
    def test_a_repeat_names_the_smallest_repeated_pair(self, data, random):
        n, edges, again = data
        # list some pairs a second or third time, then shuffle the whole list
        edges = edges + [edges[i % len(edges)] for i in again]
        random.shuffle(edges)
        first = min(e for e, count in Counter(edges).items() if count > 1)
        src, dst = map(list, zip(*edges))
        with pytest.raises(ValueError, match="^" + re.escape(
                f"edge ({first[0]}, {first[1]}) is listed twice") + "$"):
            TypedNetwork.from_edges(n, src, dst, [1] * len(edges), [0] * n, 1, 1)

    def test_refuses_bad_sizes_and_labels(self):
        with pytest.raises(ValueError, match="subgraph_of must be a length-3 vector"):
            TypedNetwork.from_edges(3, [0], [1], [1], [0, 0], 1, 1)
        with pytest.raises(ValueError, match="n_types must be >= 1"):
            TypedNetwork.from_edges(3, [0], [1], [1], [0, 0, 0], 0, 1)
        with refused("subgraph label 2 at vertex 1 outside 0..1"):
            TypedNetwork.from_edges(3, [0], [1], [1], [0, 2, 0], 1, 2)

    @pytest.mark.parametrize("labels", [[0, 0.7], [0, 1.9], [0, np.nan]])
    def test_refuses_fractional_subgraph_labels(self, labels):
        with pytest.raises(ValueError, match="subgraph_of must contain integers"):
            TypedNetwork.from_edges(2, [], [], [], labels, 1, 2)

    def test_checks_run_in_order(self):
        # a vertex out of range is named before a self-loop, a self-loop
        # before a repeat, a repeat before a type outside 1..C
        with pytest.raises(ValueError, match=r"edge \(5, 1\) has a vertex"):
            TypedNetwork.from_edges(3, [1, 1, 5, 0], [1, 0, 1, 2], [1, 1, 1, 0],
                                    [0, 0, 0], 1, 1)
        with pytest.raises(ValueError, match=r"edge \(1, 1\) is a self-loop"):
            TypedNetwork.from_edges(3, [1, 1, 0], [0, 1, 2], [1, 1, 0], [0, 0, 0], 1, 1)
