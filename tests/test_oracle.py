"""Exact log evidence by enumeration, and its relation to the bound."""

import math
import re

import numpy as np
import pytest

import oracles
from builders import random_instance

from rsm import (
    FitConfig,
    OracleLimits,
    PriorHyperparams,
    TypedNetwork,
    exact_log_evidence,
    fit,
)


def one_edge_net():
    x = np.array([[0, 1], [0, 0]])
    return TypedNetwork(x, [0, 0], n_types=1, n_subgraphs=1)


class TestExactLogEvidence:
    def test_one_edge_closed_form(self):
        # two vertices, one untyped edge, one cluster: the only factor left
        # is Beta(a0 + 1, b0 + 1) / Beta(a0, b0) over the two ordered pairs,
        # which at a0 = b0 = 1/2 equals 1/8
        value = exact_log_evidence(one_edge_net(), 1,
                                   PriorHyperparams.jeffreys(1, 1, 1))
        np.testing.assert_allclose(value, -3.0 * math.log(2.0), atol=1e-12)

    def test_single_cluster_general_closed_form(self):
        rng = np.random.default_rng(0)
        net = random_instance(rng, 9, 2, 2, 3).network
        priors = PriorHyperparams.jeffreys(net.n_subgraphs, 1, net.n_types)
        value = exact_log_evidence(net, 1, priors)

        # with K = 1 the assignment sum collapses to one term
        present, absent = oracles.presence_counts(
            net.edge_types, net.subgraph_of, net.n_subgraphs)
        expected = 0.0
        for r in range(net.n_subgraphs):
            for s in range(net.n_subgraphs):
                expected += oracles.log_beta(0.5 + present[r, s],
                                             0.5 + absent[r, s])
                expected -= oracles.log_beta(0.5, 0.5)
        type_totals = [(net.edge_types == c).sum() for c in (1, 2, 3)]
        expected += oracles.log_dirichlet_norm(
            [0.5 + t for t in type_totals])
        expected -= oracles.log_dirichlet_norm([0.5] * 3)
        np.testing.assert_allclose(value, expected, rtol=1e-10)

    def test_matches_loop_enumeration(self):
        # the reference recomputes the presence factor inside the sum, so
        # agreement also certifies hoisting it out
        rng = np.random.default_rng(1)
        for _ in range(4):
            n = int(rng.integers(3, 6))
            k = int(rng.integers(2, 4))
            net = random_instance(rng, n, 2, k, 2).network
            priors = PriorHyperparams.jeffreys(2, k, 2)
            value = exact_log_evidence(net, k, priors)
            expected = oracles.enumeration_evidence(
                net.edge_types, net.subgraph_of, k,
                priors.chi0, priors.a0, priors.b0, priors.xi0)
            np.testing.assert_allclose(value, expected, rtol=1e-10)

    def test_invariant_to_vertex_order(self):
        rng = np.random.default_rng(2)
        net = random_instance(rng, 7, 2, 2, 2).network
        priors = PriorHyperparams.jeffreys(2, 2, 2)
        perm = rng.permutation(7)
        permuted = TypedNetwork(net.edge_types[perm][:, perm],
                                net.subgraph_of[perm], n_types=2, n_subgraphs=2)
        np.testing.assert_allclose(exact_log_evidence(net, 2, priors),
                                   exact_log_evidence(permuted, 2, priors),
                                   rtol=1e-9)

    def test_invariant_to_type_relabeling(self):
        # symmetric priors make the evidence blind to renaming type codes
        rng = np.random.default_rng(3)
        net = random_instance(rng, 7, 1, 2, 2).network
        swapped_x = np.select([net.edge_types == 1, net.edge_types == 2],
                              [2, 1], default=0)
        swapped = TypedNetwork(swapped_x, net.subgraph_of, n_types=2,
                               n_subgraphs=1)
        priors = PriorHyperparams.jeffreys(1, 2, 2)
        np.testing.assert_allclose(exact_log_evidence(net, 2, priors),
                                   exact_log_evidence(swapped, 2, priors),
                                   rtol=1e-9)

    def test_empty_network_evidence_is_zero(self):
        net = TypedNetwork(np.zeros((0, 0), dtype=int), np.zeros(0, dtype=int),
                           n_types=1, n_subgraphs=1)
        assert exact_log_evidence(net, 2,
                                  PriorHyperparams.jeffreys(1, 2, 1)) == 0.0

    def test_enumeration_budget_enforced(self):
        rng = np.random.default_rng(4)
        net = random_instance(rng, 13, 1, 2, 1).network
        priors = PriorHyperparams.jeffreys(1, 2, 1)
        with pytest.raises(ValueError, match="8192"):
            exact_log_evidence(net, 2, priors)
        # a raised budget admits the same instance
        value = exact_log_evidence(net, 2, priors,
                                   OracleLimits(max_enumeration=8192))
        assert np.isfinite(value)

    def test_rejects_mismatched_priors(self):
        priors = PriorHyperparams.jeffreys(1, 3, 1)
        with pytest.raises(ValueError, match=re.escape(
                "priors shaped for (S, K, C) = (1, 3, 1), expected (1, 2, 1)")):
            exact_log_evidence(one_edge_net(), 2, priors)

    def test_rejects_nonpositive_k(self):
        priors = PriorHyperparams.jeffreys(1, 1, 1)
        with pytest.raises(ValueError, match="n_clusters"):
            exact_log_evidence(one_edge_net(), 0, priors)


    @pytest.mark.parametrize("edge_type, sub, message", [
        (-1, [0, 0, 1], r"edge type -1 at \(1, 2\) outside 0..2"),
        (5, [0, 0, 1], r"edge type 5 at \(1, 2\) outside 0..2"),
        (2, [0, -1, 1], r"subgraph label -1 at vertex 1 outside 0..1"),
    ])
    def test_rejects_invalid_networks(self, edge_type, sub, message):
        # type -1 would count as type C, label -1 as subgraph S - 1, and
        # type 5 would index past the type axis; the enumeration never sees
        # such a network, because it cannot be built
        x = np.array([[0, 1, 0],
                      [2, 0, edge_type],
                      [1, 0, 0]])
        with pytest.raises(ValueError, match="invalid network: " + message + "$"):
            TypedNetwork(x, sub, n_types=2, n_subgraphs=2)

class TestBoundAgainstOracle:
    def test_variational_bound_stays_below_the_evidence(self):
        rng = np.random.default_rng(5)
        net = random_instance(rng, 8, 2, 2, 2).network
        priors = PriorHyperparams.jeffreys(2, 2, 2)
        result = fit(net, FitConfig(n_clusters=2, priors=priors,
                                    n_restarts=3, seed=0))
        exact = exact_log_evidence(net, 2, priors)
        assert result.final_elbo <= exact + 1e-9
