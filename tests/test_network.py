"""Construction and validation of typed networks."""

import copy
import dataclasses
import json
import pickle
import re

import numpy as np
import pytest
from builders import dense_network, refused

import rsm.network
from rsm import (
    FitConfig,
    GeneratedSample,
    PriorHyperparams,
    RsmParams,
    TypedNetwork,
    benchmark_scenario,
    exact_log_evidence,
    fit,
    fit_single,
    kmedoid_init,
    sample_network,
    select_k,
    validate_network,
)
from rsm.generate import labels_from_sizes
from rsm.inference import m_step_alpha
from rsm.io import write_labels_file, write_result_bundle


def small_net():
    x = np.array([[0, 1, 2],
                  [2, 0, 1],
                  [0, 3, 0]])
    return dense_network(x, [0, 0, 1], n_types=3, n_subgraphs=2)


class TestTypedNetwork:
    def test_basic_properties(self):
        net = small_net()
        assert net.n_vertices == 3
        assert net.n_types == 3
        assert net.n_subgraphs == 2

    def test_identity_equality_and_hashing(self):
        # records holding arrays compare by identity, so comparing two
        # never asks numpy for the truth value of an array
        net = small_net()
        assert net == net
        assert (net == small_net()) is False
        assert {net} == {net}
        config = FitConfig(n_clusters=2, priors=PriorHyperparams.jeffreys(2, 2, 3))
        assert hash(config) == hash(config)

    def test_arrays_are_read_only(self):
        net = small_net()
        with pytest.raises(ValueError):
            net.edge_types[0, 1] = 5
        with pytest.raises(ValueError):
            net.subgraph_of[0] = 1
        for arr in (net.src, net.dst, net.types):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_only_from_edges_builds_a_network(self):
        # the class has no constructor of its own, so no network can skip
        # the checks of from_edges: not the old dense call, nor the fields
        net = small_net()
        fields = {f.name: getattr(net, f.name) for f in dataclasses.fields(TypedNetwork)}
        assert "__init__" not in vars(TypedNetwork)
        for args, kwargs in (((net.edge_types, [0, 0, 1], 3, 2), {}),
                             (tuple(fields.values()), {}), ((), fields)):
            with pytest.raises(TypeError, match=r"^TypedNetwork\(\) takes no arguments$"):
                TypedNetwork(*args, **kwargs)

    def test_a_bare_call_builds_no_network(self):
        # not even an empty instance without fields
        with pytest.raises(TypeError, match=r"^TypedNetwork\(\) takes no arguments$"):
            TypedNetwork()

    def test_copies_are_built_by_from_edges(self):
        # a copy or an unpickled network is rebuilt, checked and read-only,
        # not restored field by field into writable arrays
        net = small_net()
        net._type_operator
        for other in (copy.copy(net), copy.deepcopy(net), pickle.loads(pickle.dumps(net))):
            assert type(other) is TypedNetwork and other is not net
            for name in ("src", "dst", "types", "subgraph_of"):
                np.testing.assert_array_equal(getattr(other, name), getattr(net, name))
                assert getattr(other, name).dtype == np.int64
                assert not getattr(other, name).flags.writeable
            assert ((other.n_vertices, other.n_types, other.n_subgraphs)
                    == (net.n_vertices, net.n_types, net.n_subgraphs))
            np.testing.assert_array_equal(other._type_operator.toarray(),
                                          net._type_operator.toarray())

    def test_inputs_are_copied(self):
        src, dst, types, sub = (np.array(v) for v in ([0, 1], [1, 0], [1, 1], [0, 0]))
        net = TypedNetwork.from_edges(2, src, dst, types, sub, n_types=2, n_subgraphs=1)
        for arr in (src, dst, types, sub):
            arr[0] = 7
        np.testing.assert_array_equal(net.edge_types, [[0, 1], [1, 0]])
        assert net.subgraph_of[0] == 0

    def test_rejects_wrong_label_length(self):
        with pytest.raises(ValueError, match="length-2"):
            dense_network(np.zeros((2, 2), dtype=int), [0, 0, 0], 1, 1)

    def test_rejects_fractional_edge_types(self):
        # NaN, inf and 1e300 are refused before the integrality cast would warn
        for value in (1.5, np.nan, np.inf, 1e300):
            with pytest.raises(ValueError, match="^types must contain integers$"):
                dense_network(np.array([[0.0, value], [0.0, 0.0]]), [0, 0], 2, 1)

    @pytest.mark.parametrize("labels", [[0, 0.7], [0, 1.9], [0, np.nan]])
    def test_rejects_fractional_subgraph_labels(self, labels):
        with pytest.raises(ValueError, match="subgraph_of must contain integers"):
            dense_network(np.zeros((2, 2), dtype=int), labels, 1, 2)

    def test_accepts_integral_floats(self):
        net = dense_network(np.array([[0.0, 2.0], [1.0, 0.0]]), [0, 0], 2, 1)
        assert net.edge_types.dtype == np.int64
        assert net.edge_types[0, 1] == 2

    def test_counts_must_be_positive(self):
        x = np.zeros((2, 2), dtype=int)
        with pytest.raises(ValueError, match="n_types"):
            dense_network(x, [0, 0], 0, 1)
        with pytest.raises(ValueError, match="n_subgraphs"):
            dense_network(x, [0, 0], 1, 0)

    def test_repr_names_sizes(self):
        text = repr(small_net())
        assert "n_vertices=3" in text
        assert "n_edges=5" in text


class TestOffdiagonal:
    """``dense_network`` keeps only the off-diagonal nonzeros of its
    matrix, and ``edge_types`` gives them back with a zero diagonal."""

    def test_zeroes_diagonal_only(self):
        net = dense_network(np.array([[4, 1], [2, 9]]), [0, 0], 9, 1)
        out = net.edge_types
        assert out[0, 0] == 0 and out[1, 1] == 0
        assert out[0, 1] == 1 and out[1, 0] == 2
        assert len(net.src) == 2

    def test_input_not_mutated(self):
        x = np.array([[4, 1], [2, 9]])
        dense_network(x, [0, 0], 9, 1)
        np.testing.assert_array_equal(x, [[4, 1], [2, 9]])
        # int64 edges out of row-major order are sorted in a copy, and the
        # caller's arrays stay as they were, and writable
        src, dst, types, sub = (np.array(v, dtype=np.int64)
                                for v in ([1, 0], [0, 1], [2, 1], [0, 0]))
        TypedNetwork.from_edges(2, src, dst, types, sub, 2, 1)
        for arr, want in ((src, [1, 0]), (dst, [0, 1]), (types, [2, 1]), (sub, [0, 0])):
            np.testing.assert_array_equal(arr, want)
            assert arr.flags.writeable

    def test_empty_matrix(self):
        net = dense_network(np.zeros((3, 3)), [0, 0, 1], 1, 2)
        np.testing.assert_array_equal(net.edge_types, np.zeros((3, 3), dtype=np.int64))
        assert net.src.shape == net.dst.shape == net.types.shape == (0,)
        assert net.types.dtype == np.int64


class TestMemoryRule:
    """``edge_types`` counts its 8N² bytes and passes them to the memory
    rule before it allocates the matrix."""

    def test_edge_types_past_physical_memory_is_refused(self, monkeypatch):
        net = small_net()
        monkeypatch.setattr(rsm.network, "PHYSICAL_MEMORY", 72)
        assert net.edge_types.shape == (3, 3)
        monkeypatch.setattr(rsm.network, "PHYSICAL_MEMORY", 71)
        with pytest.raises(ValueError, match=re.escape(
                "the type matrix of a 3-vertex network takes 0.0 GiB (72 bytes), "
                "more than the 0.0 GiB of physical memory")):
            net.edge_types

    def test_refuses_before_allocating(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the matrix was allocated past the rule")

        net = TypedNetwork.from_edges(100_000, [0], [1], [1], np.zeros(100_000, dtype=int),
                                      n_types=1, n_subgraphs=1)
        monkeypatch.setattr(rsm.network.np, "zeros", unreachable)
        monkeypatch.setattr(rsm.network, "PHYSICAL_MEMORY", 2 ** 30)
        with pytest.raises(ValueError, match=re.escape(
                "the type matrix of a 100000-vertex network takes 74.5 GiB "
                "(80000000000 bytes), more than the 1.0 GiB of physical memory")):
            net.edge_types

    def test_an_unknown_memory_size_refuses_nothing(self, monkeypatch):
        monkeypatch.setattr(rsm.network, "PHYSICAL_MEMORY", None)
        rsm.network._refuse_past_memory(2 ** 80, "anything")
        np.testing.assert_array_equal(small_net().edge_types[0], [0, 1, 2])


class TestValidateNetwork:
    """Construction refuses a type or label out of range, naming the first;
    ``validate_network`` reports the warnings a built network may hold."""

    def test_clean_network_passes(self):
        report = validate_network(small_net())
        assert report.ok
        assert report.violations == ()
        assert report.warnings == ()

    def test_diagonal_values_are_ignored(self):
        # a diagonal entry is no edge, so its type is never checked
        net = dense_network(np.array([[9, 1], [0, -4]]), [0, 0], n_types=1, n_subgraphs=1)
        assert validate_network(net).ok
        assert net.src.tolist() == [0] and net.dst.tolist() == [1]

    def test_edge_type_above_range_is_located(self):
        x = np.array([[0, 7], [0, 0]])
        with refused("edge type 7 at (0, 1) outside 1..3"):
            dense_network(x, [0, 0], n_types=3, n_subgraphs=1)

    def test_negative_edge_type_rejected(self):
        x = np.array([[0, 0], [-2, 0]])
        with refused("edge type -2 at (1, 0) outside 1..3"):
            dense_network(x, [0, 0], n_types=3, n_subgraphs=1)

    def test_subgraph_label_out_of_range(self):
        with refused("subgraph label 5 at vertex 1 outside 0..1"):
            dense_network(np.zeros((2, 2), dtype=int), [0, 5], 1, 2)

    def test_empty_subgraph_warns_but_passes(self):
        net = dense_network(np.zeros((2, 2), dtype=int), [0, 0], 1, 3)
        report = validate_network(net)
        assert report.ok
        assert len(report.warnings) == 2
        assert all("no vertices" in w for w in report.warnings)



def _sample(labels, path):
    return GeneratedSample(network=TypedNetwork.from_edges(2, [], [], [], [0, 0], 1, 1),
                           true_labels=labels,
                           params=RsmParams(alpha=[[0.5, 0.5]], gamma=[[0.5]],
                                            pi=np.ones((2, 2, 1))))


# Every entry point that takes an integer vector, each called with a bad
# one in place of a length-2 vector: the name its integer refusal begins
# with, and its refusal of another shape.
INTEGER_VECTORS = {
    "from_edges.src": (lambda v, path: TypedNetwork.from_edges(3, v, [2, 0], [1, 1],
                                                               [0, 0, 0], 1, 1),
                       "src", "src, dst and types must be equal-length vectors"),
    "from_edges.dst": (lambda v, path: TypedNetwork.from_edges(3, [2, 0], v, [1, 1],
                                                               [0, 0, 0], 1, 1),
                       "dst", "src, dst and types must be equal-length vectors"),
    "from_edges.types": (lambda v, path: TypedNetwork.from_edges(3, [0, 1], [1, 2], v,
                                                                 [0, 0, 0], 1, 1),
                         "types", "src, dst and types must be equal-length vectors"),
    "from_edges.subgraph_of": (lambda v, path: TypedNetwork.from_edges(2, [], [], [], v, 1, 2),
                               "subgraph_of", "subgraph_of must be a length-2 vector"),
    "GeneratedSample": (_sample, "true_labels", "true_labels must be a length-2 vector"),
    "sample_network": (lambda v, path: sample_network(
                           RsmParams(alpha=[[1.0], [1.0]], gamma=np.full((2, 2), 0.5),
                                     pi=[[[1.0]]]), v, 0),
                       "subgraph_of", "subgraph_of must be a vector"),
    "labels_from_sizes": (lambda v, path: labels_from_sizes(v, 2),
                          "subgraph_sizes", "subgraph_sizes must list 2 sizes"),
    "m_step_alpha": (lambda v, path: m_step_alpha(v, np.full((2, 2), 0.5),
                                                  PriorHyperparams.jeffreys(2, 2, 1)),
                     "subgraph_of", "subgraph_of must be a vector"),
    "write_labels_file": (lambda v, path: write_labels_file(path, v),
                          "labels", "labels must be a vector"),
}

BAD_SHAPES = {"2-D": [[0, 1]], "0-d": 0}
NOT_INT64 = {
    "fractional": [0, 0.5],
    "NaN": [0, np.nan],
    "inf": [0, np.inf],
    "float 2**63": [0, 2.0 ** 63],
    "uint64 2**63": np.array([0, 2 ** 63], dtype=np.uint64),
}


class TestIntegerVectors:
    """One rule for every integer vector: another shape and an entry that is
    not an int64 integer are refused, naming the argument, before anything
    is written."""

    @pytest.mark.parametrize("shape", BAD_SHAPES)
    @pytest.mark.parametrize("entry", INTEGER_VECTORS)
    def test_another_shape_is_refused(self, tmp_path, entry, shape):
        call, _, message = INTEGER_VECTORS[entry]
        values = BAD_SHAPES[shape]
        if entry == "m_step_alpha" and shape == "2-D":
            values = [values]  # its 2-D form is the membership matrix
        path = tmp_path / "labels.txt"
        with pytest.raises(ValueError, match=re.escape(message)):
            call(values, path)
        assert not path.exists()

    @pytest.mark.parametrize("values", NOT_INT64)
    @pytest.mark.parametrize("entry", INTEGER_VECTORS)
    def test_an_entry_outside_int64_is_refused(self, tmp_path, entry, values):
        call, name, _ = INTEGER_VECTORS[entry]
        path = tmp_path / "labels.txt"
        with pytest.raises(ValueError, match=f"^{name} must contain integers$"):
            call(NOT_INT64[values], path)
        assert not path.exists()

    @pytest.mark.parametrize("entry", INTEGER_VECTORS)
    def test_a_valid_vector_passes(self, tmp_path, entry):
        call, _, _ = INTEGER_VECTORS[entry]
        call(np.array([1, 1], dtype=np.uint8), tmp_path / "labels.txt")


TWO_VERTICES = RsmParams(alpha=[[1.0]], gamma=[[0.5]], pi=[[[1.0]]])


def nothing(result):
    """What an entry point keeps of a count it only uses."""
    return None


# Every entry point that takes a count or a seed, each called with a value
# in its place: what it keeps of the value (None where it keeps nothing),
# the argument's name, and its minimum.  Each accepts 3.
COUNTS = {
    "FitConfig.n_clusters": (lambda v: FitConfig(n_clusters=v).n_clusters, "n_clusters", 1),
    "FitConfig.n_restarts": (lambda v: FitConfig(1, n_restarts=v).n_restarts, "n_restarts", 1),
    "FitConfig.max_iterations": (lambda v: FitConfig(1, max_iterations=v).max_iterations,
                                 "max_iterations", 1),
    "FitConfig.seed": (lambda v: FitConfig(1, seed=v).seed, "seed", 0),
    "fit_single.max_iterations": (lambda v: nothing(fit_single(
                                      small_net(), np.ones((3, 1)),
                                      PriorHyperparams.jeffreys(2, 1, 3), max_iterations=v)),
                                  "max_iterations", 1),
    "kmedoid_init.n_clusters": (lambda v: nothing(kmedoid_init(np.zeros((3, 3)), v, 0)),
                                "n_clusters", 1),
    "kmedoid_init.seed": (lambda v: nothing(kmedoid_init(np.zeros((3, 3)), 2, v)), "seed", 0),
    "sample_network.seed": (lambda v: nothing(sample_network(TWO_VERTICES, [0, 0], v)),
                            "seed", 0),
    "from_edges.n_vertices": (lambda v: TypedNetwork.from_edges(v, [], [], [], [0, 0, 0],
                                                                1, 1).n_vertices,
                              "n_vertices", 0),
    "from_edges.n_types": (lambda v: TypedNetwork.from_edges(2, [0], [1], [1], [0, 0],
                                                             v, 1).n_types, "n_types", 1),
    "from_edges.n_subgraphs": (lambda v: TypedNetwork.from_edges(2, [0], [1], [1], [0, 0],
                                                                 1, v).n_subgraphs,
                               "n_subgraphs", 1),
    "exact_log_evidence.n_clusters": (lambda v: nothing(exact_log_evidence(
                                          small_net(), v, PriorHyperparams.jeffreys(2, 3, 3))),
                                      "n_clusters", 1),
    "exact_log_evidence.max_enumeration": (lambda v: nothing(exact_log_evidence(
                                               small_net(), 1, PriorHyperparams.jeffreys(2, 1, 3),
                                               max_enumeration=v)),
                                           "max_enumeration", 1),
    "PriorHyperparams.constant.n_subgraphs": (lambda v: PriorHyperparams.constant(
                                                  v, 1, 1, 2.0).n_subgraphs, "n_subgraphs", 1),
    "PriorHyperparams.constant.n_clusters": (lambda v: PriorHyperparams.constant(
                                                 1, v, 1, 2.0).n_clusters, "n_clusters", 1),
    "PriorHyperparams.constant.n_types": (lambda v: PriorHyperparams.constant(
                                              1, 1, v, 2.0).n_types, "n_types", 1),
    "PriorHyperparams.jeffreys.n_subgraphs": (lambda v: PriorHyperparams.jeffreys(
                                                  v, 1, 1).n_subgraphs, "n_subgraphs", 1),
    "PriorHyperparams.jeffreys.n_clusters": (lambda v: PriorHyperparams.jeffreys(
                                                 1, v, 1).n_clusters, "n_clusters", 1),
    "PriorHyperparams.jeffreys.n_types": (lambda v: PriorHyperparams.jeffreys(
                                              1, 1, v).n_types, "n_types", 1),
    "labels_from_sizes.n_subgraphs": (lambda v: nothing(labels_from_sizes([1, 0, 2], v)),
                                      "n_subgraphs", 1),
    "benchmark_scenario.which": (lambda v: nothing(benchmark_scenario(v, 0)), "which", 1),
    "select_k.k_values": (lambda v: next(iter(select_k(small_net(), [v],
                                                       FitConfig(1, n_restarts=1)).per_k)),
                          "n_clusters", 1),
}

NOT_INTEGERS = {"2.5": 2.5, "NaN": np.nan, "'3'": "3"}


class TestCounts:
    """One rule for every count and seed: a value that is not an integer, or
    one below the argument's minimum, is refused with a ValueError naming
    the argument; a numpy integer passes and is kept as a Python int."""

    @pytest.mark.parametrize("value", NOT_INTEGERS)
    @pytest.mark.parametrize("entry", COUNTS)
    def test_a_value_that_is_not_an_integer_is_refused(self, entry, value):
        call, name, _ = COUNTS[entry]
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            call(NOT_INTEGERS[value])

    @pytest.mark.parametrize("entry", COUNTS)
    def test_a_value_below_the_minimum_is_refused(self, entry):
        call, name, minimum = COUNTS[entry]
        message = f"^{name} must be >= {minimum}, got {minimum - 1}$"
        with pytest.raises(ValueError, match=message):
            call(minimum - 1)

    @pytest.mark.parametrize("entry", COUNTS)
    def test_a_numpy_integer_passes_as_an_int(self, entry):
        kept = COUNTS[entry][0](np.int64(3))
        assert kept is None or (type(kept) is int and kept == 3)

    def test_select_k_does_not_cut_a_fractional_candidate(self):
        with pytest.raises(ValueError, match="^n_clusters must be an integer, got 1.5$"):
            select_k(small_net(), [1.5], FitConfig(1))

    def test_exact_log_evidence_does_not_cut_a_fractional_k(self):
        with pytest.raises(ValueError, match="^n_clusters must be an integer, got 1.9$"):
            exact_log_evidence(small_net(), 1.9, PriorHyperparams.jeffreys(2, 1, 3))

    def test_from_edges_names_a_negative_vertex_count(self):
        with pytest.raises(ValueError, match="^n_vertices must be >= 0, got -1$"):
            TypedNetwork.from_edges(-1, [], [], [], [], 1, 1)

    def test_sample_network_names_a_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
            sample_network(TWO_VERTICES, [0, 0], seed=-1)

    def test_a_bundle_configured_with_numpy_integers_is_written_whole(self, tmp_path):
        config = FitConfig(np.int64(3), n_restarts=np.int64(2),
                           max_iterations=np.int64(20), seed=np.int64(4))
        paths = write_result_bundle(tmp_path, fit(small_net(), config), config)
        metadata = json.loads(paths["metadata"].read_text())
        assert [metadata[key] for key in ("n_clusters", "n_restarts", "max_iterations",
                                          "seed")] == [3, 2, 20, 4]
