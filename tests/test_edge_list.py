"""The edge list behind ``TypedNetwork``, checked against the dense input.

Random dense matrices (including N=0, C=1, networks without edges, empty
subgraphs, nonzero diagonals and types outside ``1..C``) are turned into
networks; the edge list, the rebuilt matrix, the presence counts, the
validation report and a file round trip must all agree with what the dense
input says.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles

from rsm import PriorHyperparams, TypedNetwork, m_step_gamma, validate_network
from rsm.io import read_network_file, write_network_file


@st.composite
def dense_inputs(draw, max_vertices=8, valid=False):
    """(x, subgraph_of, n_types, n_subgraphs) with arbitrary diagonals.

    Unless ``valid``, off-diagonal types may fall outside ``0..n_types`` and
    subgraph labels outside ``0..n_subgraphs - 1``.
    """
    n = draw(st.integers(0, max_vertices))
    n_types = draw(st.integers(1, 4))
    n_subgraphs = draw(st.integers(1, 3))
    types = st.one_of(st.just(0), st.integers(1, n_types))
    labels = st.integers(0, n_subgraphs - 1)
    if not valid:
        types = st.one_of(types, st.integers(-3, n_types + 3))
        labels = st.one_of(labels, st.integers(-2, n_subgraphs + 1))
    x = draw(arrays(np.int64, (n, n), elements=types))
    if n:
        diagonal = draw(arrays(np.int64, n, elements=st.integers(-3, n_types + 3)))
        np.fill_diagonal(x, diagonal)
    sub = draw(arrays(np.int64, n, elements=labels))
    return x, sub, n_types, n_subgraphs


def off_diagonal(x):
    out = np.array(x, copy=True)
    if out.size:
        np.fill_diagonal(out, 0)
    return out


class TestEdgeListAgainstDenseInput:
    @settings(max_examples=100, deadline=None)
    @given(dense_inputs())
    def test_edges_are_the_off_diagonal_nonzeros_in_row_major_order(self, data):
        x, sub, n_types, n_subgraphs = data
        net = TypedNetwork(x, sub, n_types, n_subgraphs)
        n = len(x)
        expected = [(i, j, x[i, j]) for i in range(n) for j in range(n)
                    if i != j and x[i, j] != 0]
        assert list(zip(net.src.tolist(), net.dst.tolist(),
                        net.types.tolist())) == expected

    @settings(max_examples=100, deadline=None)
    @given(dense_inputs())
    def test_edge_types_is_the_off_diagonal_part(self, data):
        x, sub, n_types, n_subgraphs = data
        rebuilt = TypedNetwork(x, sub, n_types, n_subgraphs).edge_types
        assert rebuilt.dtype == np.int64
        np.testing.assert_array_equal(rebuilt, off_diagonal(x))

    @settings(max_examples=100, deadline=None)
    @given(dense_inputs(valid=True), st.sampled_from([0.5, 1.0, 3.0]))
    def test_presence_update_equals_loop_counts(self, data, prior):
        # m_step_gamma rejects types and labels out of range
        x, sub, n_types, n_subgraphs = data
        net = TypedNetwork(x, sub, n_types, n_subgraphs)
        priors = PriorHyperparams.constant(n_subgraphs, 2, n_types, prior)
        a, b = m_step_gamma(net, priors)
        present, absent = oracles.presence_counts(x, sub, n_subgraphs)
        np.testing.assert_array_equal(a, priors.a0 + present)
        np.testing.assert_array_equal(b, priors.b0 + absent)

    @settings(max_examples=150, deadline=None)
    @given(dense_inputs())
    def test_violations_equal_the_dense_scan(self, data):
        x, sub, n_types, n_subgraphs = data
        report = validate_network(TypedNetwork(x, sub, n_types, n_subgraphs))
        assert list(report.violations) == oracles.validation_violations(
            x, sub, n_types, n_subgraphs)

    def test_violation_summary_past_twenty(self):
        rng = np.random.default_rng(0)
        x = rng.integers(-2, 6, size=(30, 30))
        sub = rng.integers(-1, 4, size=30)
        report = validate_network(TypedNetwork(x, sub, 2, 2))
        expected = oracles.validation_violations(x, sub, 2, 2)
        assert any("more edge-type" in v for v in expected)
        assert any("more subgraph-label" in v for v in expected)
        assert list(report.violations) == expected


class TestFileRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(dense_inputs(valid=True))
    def test_write_then_read_reproduces_the_edge_list(self, data):
        x, sub, n_types, n_subgraphs = data
        net = TypedNetwork(x, sub, n_types, n_subgraphs)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "network.txt"
            write_network_file(path, net)
            n, s, c, read = read_network_file(path)
        assert (n, s, c) == (net.n_vertices, n_subgraphs, n_types)
        back = TypedNetwork(read, sub, c, s)
        for name in ("src", "dst", "types"):
            np.testing.assert_array_equal(getattr(back, name), getattr(net, name))
