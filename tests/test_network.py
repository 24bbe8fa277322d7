"""Construction and validation of typed networks."""

import numpy as np
import pytest
from builders import refused

from rsm import TypedNetwork, validate_network


def small_net():
    x = np.array([[0, 1, 2],
                  [2, 0, 1],
                  [0, 3, 0]])
    return TypedNetwork(x, [0, 0, 1], n_types=3, n_subgraphs=2)


class TestTypedNetwork:
    def test_basic_properties(self):
        net = small_net()
        assert net.n_vertices == 3
        assert net.n_types == 3
        assert net.n_subgraphs == 2

    def test_arrays_are_read_only(self):
        net = small_net()
        with pytest.raises(ValueError):
            net.edge_types[0, 1] = 5
        with pytest.raises(ValueError):
            net.subgraph_of[0] = 1
        for arr in (net.src, net.dst, net.types):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_inputs_are_copied(self):
        x = np.array([[0, 1], [1, 0]])
        sub = np.array([0, 0])
        net = TypedNetwork(x, sub, n_types=1, n_subgraphs=1)
        x[0, 1] = 7
        sub[0] = 3
        assert net.edge_types[0, 1] == 1
        assert net.subgraph_of[0] == 0

    def test_rejects_non_square_matrix(self):
        with pytest.raises(ValueError, match="square"):
            TypedNetwork(np.zeros((2, 3), dtype=int), [0, 0], 1, 1)

    def test_rejects_wrong_label_length(self):
        with pytest.raises(ValueError, match="length-2"):
            TypedNetwork(np.zeros((2, 2), dtype=int), [0, 0, 0], 1, 1)

    def test_rejects_fractional_edge_types(self):
        # NaN, inf and 1e300 are refused before the integrality cast would warn
        for value in (1.5, np.nan, np.inf, 1e300):
            with pytest.raises(ValueError, match="edge_types must contain integers"):
                TypedNetwork(np.array([[0.0, value], [0.0, 0.0]]), [0, 0], 2, 1)

    def test_accepts_integral_floats(self):
        net = TypedNetwork(np.array([[0.0, 2.0], [1.0, 0.0]]), [0, 0], 2, 1)
        assert net.edge_types.dtype == np.int64
        assert net.edge_types[0, 1] == 2

    def test_counts_must_be_positive(self):
        x = np.zeros((2, 2), dtype=int)
        with pytest.raises(ValueError, match="n_types"):
            TypedNetwork(x, [0, 0], 0, 1)
        with pytest.raises(ValueError, match="n_subgraphs"):
            TypedNetwork(x, [0, 0], 1, 0)

    def test_repr_names_sizes(self):
        text = repr(small_net())
        assert "n_vertices=3" in text
        assert "n_edges=5" in text


class TestOffdiagonal:
    """The network keeps only the off-diagonal entries of its input."""

    def test_zeroes_diagonal_only(self):
        net = TypedNetwork(np.array([[4, 1], [2, 9]]), [0, 0], 9, 1)
        out = net.edge_types
        assert out[0, 0] == 0 and out[1, 1] == 0
        assert out[0, 1] == 1 and out[1, 0] == 2
        assert len(net.src) == 2

    def test_input_not_mutated(self):
        x = np.array([[4, 1], [2, 9]])
        TypedNetwork(x, [0, 0], 9, 1)
        assert x[0, 0] == 4

    def test_empty_matrix(self):
        net = TypedNetwork(np.zeros((0, 0), dtype=int), [], 1, 1)
        assert net.edge_types.shape == (0, 0)
        assert net.src.shape == net.dst.shape == net.types.shape == (0,)


class TestValidateNetwork:
    """``validate_network`` holds the range rule; construction refuses a
    network it finds violations in, and the report keeps the warnings."""

    def test_clean_network_passes(self):
        report = validate_network(small_net())
        assert report.ok
        assert report.violations == ()
        assert report.warnings == ()

    def test_diagonal_values_are_ignored(self):
        x = np.array([[9, 1], [0, -4]])
        net = TypedNetwork(x, [0, 0], n_types=1, n_subgraphs=1)
        assert validate_network(net).ok

    def test_edge_type_above_range_is_located(self):
        x = np.array([[0, 7], [0, 0]])
        with refused("edge type 7 at (0, 1) outside 0..3"):
            TypedNetwork(x, [0, 0], n_types=3, n_subgraphs=1)

    def test_negative_edge_type_rejected(self):
        x = np.array([[0, 0], [-2, 0]])
        with refused("edge type -2 at (1, 0) outside 0..3"):
            TypedNetwork(x, [0, 0], n_types=3, n_subgraphs=1)

    def test_subgraph_label_out_of_range(self):
        with refused("subgraph label 5 at vertex 1 outside 0..1"):
            TypedNetwork(np.zeros((2, 2), dtype=int), [0, 5], 1, 2)

    def test_many_violations_are_summarized(self):
        n = 30
        x = np.full((n, n), 9)
        itemized = [f"edge type 9 at (0, {j}) outside 0..2" for j in range(1, 21)]
        with refused(*itemized, f"... and {n * (n - 1) - 20} more edge-type violations"):
            TypedNetwork(x, np.zeros(n, dtype=int), n_types=2, n_subgraphs=1)

    def test_empty_subgraph_warns_but_passes(self):
        net = TypedNetwork(np.zeros((2, 2), dtype=int), [0, 0], 1, 3)
        report = validate_network(net)
        assert report.ok
        assert len(report.warnings) == 2
        assert all("no vertices" in w for w in report.warnings)

