"""Update equations, bound computation, and the fitting loop.

The update sweeps are checked against loop-based reference implementations
(see ``oracles.py``) that use their own digamma and ``math.lgamma``, so the
vectorized code and the reference share no numerical plumbing.
"""

import re

import numpy as np
import pytest
import scipy.special

import oracles
from builders import random_instance, random_state, random_tau, refused

from rsm import (
    FitConfig,
    PriorHyperparams,
    TypedNetwork,
    VariationalState,
    adjusted_rand_index,
    demo_spec,
    distance_matrix,
    e_step,
    elbo,
    expand_scenario,
    fit,
    fit_single,
    kmedoid_init,
    m_step_alpha,
    m_step_gamma,
    m_step_pi,
    sample_network,
)


def demo_sample(seed=0):
    spec = demo_spec()
    return sample_network(expand_scenario(spec), spec.subgraph_labels(), seed)


class TestOracleToolingAccuracy:
    """The reference digamma must be accurate enough to judge the library."""

    def test_reference_digamma_against_scipy(self):
        xs = np.concatenate([np.linspace(1e-3, 2, 40),
                             np.linspace(2, 120, 40)])
        for x in xs:
            assert abs(oracles.digamma(x) - scipy.special.digamma(x)) < 1e-11


class TestUpdateOracles:
    """Vectorized sweeps match loop-based transcriptions of the same math."""

    def instances(self, count):
        rng = np.random.default_rng(42)
        for _ in range(count):
            n = int(rng.integers(6, 15))
            s = int(rng.integers(1, 4))
            k = int(rng.integers(1, 5))
            c = int(rng.integers(1, 4))
            net = random_instance(rng, n, s, k, c).network
            yield rng, net, k

    def test_presence_update(self):
        for rng, net, k in self.instances(6):
            priors = PriorHyperparams.jeffreys(net.n_subgraphs, k, net.n_types)
            a, b = m_step_gamma(net, priors)
            present, absent = oracles.presence_counts(
                net.edge_types, net.subgraph_of, net.n_subgraphs)
            np.testing.assert_allclose(a, priors.a0 + present, rtol=1e-10)
            np.testing.assert_allclose(b, priors.b0 + absent, rtol=1e-10)

    def test_mixing_update(self):
        for rng, net, k in self.instances(6):
            priors = PriorHyperparams.jeffreys(net.n_subgraphs, k, net.n_types)
            tau = random_tau(rng, net.n_vertices, k)
            chi = m_step_alpha(net.subgraph_of, tau, priors)
            expected = priors.chi0 + oracles.mixing_counts(
                net.subgraph_of, tau, net.n_subgraphs)
            np.testing.assert_allclose(chi, expected, rtol=1e-10)

    def test_type_update(self):
        for rng, net, k in self.instances(6):
            priors = PriorHyperparams.jeffreys(net.n_subgraphs, k, net.n_types)
            tau = random_tau(rng, net.n_vertices, k)
            xi = m_step_pi(net, tau, priors)
            expected = priors.xi0 + oracles.type_counts(
                net.edge_types, tau, net.n_types)
            np.testing.assert_allclose(xi, expected, rtol=1e-10)

    def test_responsibility_update(self):
        for rng, net, k in self.instances(6):
            state = random_state(rng, net, k)
            expected = oracles.responsibilities(
                net.edge_types, net.subgraph_of, state.tau, state.chi, state.xi)
            np.testing.assert_allclose(e_step(net, state), expected,
                                       rtol=1e-10, atol=1e-300)


class TestElbo:
    def test_matches_reference_formula(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            net = random_instance(rng, 10, 2, 3, 2).network
            priors = PriorHyperparams.jeffreys(2, 3, 2)
            state = random_state(rng, net, 3)
            expected = oracles.bound_value(
                state.tau, state.chi, state.a, state.b, state.xi,
                priors.chi0, priors.a0, priors.b0, priors.xi0)
            np.testing.assert_allclose(elbo(net, state, priors), expected,
                                       rtol=1e-10)

    def test_empty_network_bound_is_zero(self):
        net = TypedNetwork(np.zeros((0, 0), dtype=int), np.zeros(0, dtype=int),
                           n_types=1, n_subgraphs=1)
        priors = PriorHyperparams.jeffreys(1, 2, 1)
        state = VariationalState(tau=np.zeros((0, 2)), chi=priors.chi0,
                                 a=priors.a0, b=priors.b0, xi=priors.xi0)
        assert elbo(net, state, priors) == 0.0

    def test_rejects_mismatched_dimensions(self):
        rng = np.random.default_rng(8)
        net = random_instance(rng, 6, 1, 2, 1).network
        other = random_instance(rng, 7, 1, 2, 1).network
        priors = PriorHyperparams.jeffreys(1, 2, 1)
        state = random_state(rng, net, 2)
        with pytest.raises(ValueError, match="dimensions"):
            elbo(other, state, priors)

    def test_non_finite_state_raises(self):
        rng = np.random.default_rng(9)
        net = random_instance(rng, 5, 1, 2, 1).network
        priors = PriorHyperparams.jeffreys(1, 2, 1)
        state = VariationalState(tau=random_tau(rng, 5, 2),
                                 chi=[[1.0, 1.0]], a=[[np.inf]], b=[[1.0]],
                                 xi=np.full((2, 2, 1), 0.5))
        with pytest.raises(FloatingPointError):
            elbo(net, state, priors)


class TestEStepProperties:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(10)
        net = random_instance(rng, 18, 2, 4, 3).network
        state = random_state(rng, net, 4)
        tau = e_step(net, state)
        np.testing.assert_allclose(tau.sum(axis=1), 1.0, atol=1e-12)

    def test_uniform_without_edges_and_symmetric_mixing(self):
        # with no edge terms and a constant chi row, all scores tie, so the
        # softmax is exactly uniform
        net = TypedNetwork(np.zeros((6, 6), dtype=int), np.zeros(6, dtype=int),
                           n_types=2, n_subgraphs=1)
        state = VariationalState(tau=random_tau(np.random.default_rng(0), 6, 3),
                                 chi=[[2.0, 2.0, 2.0]], a=[[1.0]], b=[[30.0]],
                                 xi=np.full((3, 3, 2), 0.5))
        tau = e_step(net, state)
        assert np.all(tau == 1.0 / 3.0)

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_corrupted_scores_raise(self):
        rng = np.random.default_rng(11)
        net = random_instance(rng, 5, 1, 2, 1).network
        state = VariationalState(tau=random_tau(rng, 5, 2),
                                 chi=[[np.inf, 1.0]], a=[[1.0]], b=[[1.0]],
                                 xi=np.full((2, 2, 1), 0.5))
        with pytest.raises(FloatingPointError, match="responsibility"):
            e_step(net, state)


class TestFitSingle:
    def test_trace_entries_come_from_the_public_bound(self):
        rng = np.random.default_rng(12)
        net = random_instance(rng, 14, 2, 3, 2).network
        priors = PriorHyperparams.jeffreys(2, 3, 2)
        tau0 = kmedoid_init(distance_matrix(net), 3, seed=0)
        state, trace, converged = fit_single(net, tau0, priors)
        recomputed = elbo(net, state, priors)
        # the state's hyperparameters are the update outputs for state.tau,
        # so the last trace entry is exactly the recomputed bound
        assert trace[-1] == recomputed

    def test_single_cluster_converges_in_two_sweeps(self):
        rng = np.random.default_rng(13)
        net = random_instance(rng, 10, 2, 2, 2).network
        priors = PriorHyperparams.jeffreys(2, 1, 2)
        state, trace, converged = fit_single(net, np.ones((10, 1)), priors)
        assert converged
        assert len(trace) <= 2
        np.testing.assert_array_equal(state.tau, np.ones((10, 1)))

    def test_iteration_cap_reported_as_unconverged(self):
        sample = demo_sample(seed=1)
        priors = PriorHyperparams.jeffreys(2, 3, 3)
        tau0 = kmedoid_init(distance_matrix(sample.network), 3, seed=0)
        state, trace, converged = fit_single(sample.network, tau0, priors,
                                             max_iterations=2)
        assert len(trace) == 2
        assert not converged

    def test_rejects_bad_tau0(self):
        rng = np.random.default_rng(14)
        net = random_instance(rng, 6, 1, 2, 1).network
        priors = PriorHyperparams.jeffreys(1, 2, 1)
        with pytest.raises(ValueError, match="tau0 must be"):
            fit_single(net, np.ones((6, 3)) / 3.0, priors)
        with pytest.raises(ValueError, match="tau0"):
            fit_single(net, np.full((6, 2), 0.7), priors)
        with pytest.raises(ValueError, match="max_iterations"):
            fit_single(net, np.full((6, 2), 0.5), priors, max_iterations=0)

    def test_rejects_out_of_range_edge_type(self):
        # four edges, one of type 5 > n_types: its presence would count in
        # a and b while xi has no slot for its type, so no such network
        # can be built to be fitted
        x = np.array([[0, 1, 0],
                      [2, 0, 5],
                      [1, 0, 0]])
        with refused("edge type 5 at (1, 2) outside 0..2"):
            TypedNetwork(x, [0, 0, 0], n_types=2, n_subgraphs=1)

    def test_rejects_negative_subgraph_label(self):
        x = np.array([[0, 1, 0],
                      [2, 0, 1],
                      [1, 0, 0]])
        with refused("subgraph label -1 at vertex 1 outside 0..1"):
            TypedNetwork(x, [0, -1, 1], n_types=2, n_subgraphs=2)

    def test_bound_never_decreases(self):
        rng = np.random.default_rng(15)
        for _ in range(4):
            net = random_instance(rng, 20, 2, 3, 2).network
            tau0 = kmedoid_init(distance_matrix(net), 3, seed=int(rng.integers(100)))
            priors = PriorHyperparams.jeffreys(2, 3, 2)
            _, trace, _ = fit_single(net, tau0, priors)
            assert np.all(np.diff(trace) >= -1e-8)


class TestUpdatesRejectInvalidNetworks:
    """No update can be handed a network with a fault it would misread: one
    edge of type 5 with C=2 among four edges, or a subgraph label -1 with
    S=2.  Construction refuses such a network, naming each fault.  The mixing
    update takes bare labels, and checks them."""

    x = np.array([[0, 1, 0],
                  [2, 0, 5],
                  [1, 0, 0]])
    type_fault = "edge type 5 at (1, 2) outside 0..2"
    label_fault = "subgraph label -1 at vertex 1 outside 0..1"

    def test_presence_update(self):
        # a and b would count the type-5 edge's presence
        with refused(self.type_fault):
            TypedNetwork(self.x, [0, 0, 1], n_types=2, n_subgraphs=2)

    def test_mixing_update(self):
        with pytest.raises(ValueError, match=re.escape(
                self.label_fault + " of priors shaped for (S, K, C) = (2, 2, 2)")):
            m_step_alpha(np.array([0, -1, 1]), np.full((3, 2), 0.5),
                         PriorHyperparams.jeffreys(2, 2, 2))

    def test_type_update(self):
        # xi has no slot for type 5; both faults are named, types first
        with refused(self.type_fault, self.label_fault):
            TypedNetwork(self.x, [0, -1, 1], n_types=2, n_subgraphs=2)

    def test_responsibility_update(self):
        # label -1 would silently read the mixing row of subgraph S - 1
        with refused(self.label_fault):
            TypedNetwork(np.minimum(self.x, 2), [0, -1, 1], n_types=2, n_subgraphs=2)


class TestPriorsShapedForAnotherNetwork:
    """Every public update refuses priors whose (S, K, C) does not match the
    network (S = 3, C = 3) and the responsibilities' K = 3, naming both
    shapes, where it would otherwise fail on a reshape or broadcast."""

    def network(self):
        return random_instance(np.random.default_rng(19), 12, 3, 3, 3).network

    @staticmethod
    def refused(shape, expected):
        message = f"priors shaped for (S, K, C) = {shape}, expected {expected}"
        return pytest.raises(ValueError, match=re.escape(message))

    @pytest.mark.parametrize("shape", [(1, 3, 3), (3, 3, 2), (3, 1, 1)])
    def test_fit_single(self, shape):
        # the priors set K; tau0 is checked against it separately
        k = shape[1]
        with self.refused(shape, (3, k, 3)):
            fit_single(self.network(), np.full((12, k), 1.0 / k),
                       PriorHyperparams.jeffreys(*shape))

    @pytest.mark.parametrize("shape", [(1, 3, 3), (3, 3, 2), (3, 1, 1)])
    def test_presence_update(self, shape):
        with self.refused(shape, (3, shape[1], 3)):
            m_step_gamma(self.network(), PriorHyperparams.jeffreys(*shape))

    @pytest.mark.parametrize("shape", [(1, 3, 3), (3, 3, 2), (3, 1, 1)])
    def test_type_update(self, shape):
        with self.refused(shape, (3, 3, 3)):
            m_step_pi(self.network(), np.full((12, 3), 1.0 / 3),
                      PriorHyperparams.jeffreys(*shape))

    @pytest.mark.parametrize("shape", [(3, 1, 3), (3, 1, 1), (2, 4, 2), (1, 3, 3)])
    def test_mixing_update(self, shape):
        # without a network, K is checked against tau's columns first, then
        # the labels against the priors' S: with S = 1 the first label 1
        # is at vertex 1
        if shape[1] == 3:
            expected = pytest.raises(ValueError, match=re.escape(
                f"subgraph label 1 at vertex 1 outside 0..0 of priors shaped "
                f"for (S, K, C) = {shape}"))
        else:
            expected = self.refused(shape, (shape[0], 3, shape[2]))
        with expected:
            m_step_alpha(self.network().subgraph_of, np.full((12, 3), 1.0 / 3),
                         PriorHyperparams.jeffreys(*shape))

    @pytest.mark.parametrize("shape", [(1, 3, 3), (3, 3, 2), (3, 1, 1)])
    def test_bound(self, shape):
        net = self.network()
        state = random_state(np.random.default_rng(20), net, 3)
        with self.refused(shape, (3, 3, 3)):
            elbo(net, state, PriorHyperparams.jeffreys(*shape))


class TestCountConservation:
    def test_invariants_hold_after_every_update_sweep(self):
        rng = np.random.default_rng(16)
        net = random_instance(rng, 22, 3, 3, 2).network
        priors = PriorHyperparams.jeffreys(3, 3, 2)
        sub_onehot = np.eye(3)[net.subgraph_of]
        sizes = sub_onehot.sum(axis=0)
        pairs = np.outer(sizes, sizes) - np.diag(sizes)
        n_edges = len(net.src)

        tau = random_tau(rng, 22, 3)
        a, b = m_step_gamma(net, priors)
        for _ in range(12):
            chi = m_step_alpha(net.subgraph_of, tau, priors)
            xi = m_step_pi(net, tau, priors)
            # posterior Beta mass gains exactly one unit per ordered pair
            np.testing.assert_allclose(a + b - priors.a0 - priors.b0, pairs,
                                       atol=1e-9)
            # each chi row gains exactly the subgraph size
            np.testing.assert_allclose(
                (chi - priors.chi0).sum(axis=1), sizes, atol=1e-9)
            # xi gains exactly one unit of mass per present edge
            np.testing.assert_allclose((xi - priors.xi0).sum(), n_edges,
                                       atol=1e-9)
            state = VariationalState(tau=tau, chi=chi, a=a, b=b, xi=xi)
            tau = e_step(net, state)


class TestPermutationEquivariance:
    def test_relabeling_vertices_permutes_the_answer(self):
        rng = np.random.default_rng(17)
        sample = demo_sample(seed=2)
        net = sample.network
        perm = rng.permutation(net.n_vertices)
        permuted = TypedNetwork(net.edge_types[perm][:, perm],
                                net.subgraph_of[perm],
                                n_types=net.n_types,
                                n_subgraphs=net.n_subgraphs)
        priors = PriorHyperparams.jeffreys(2, 3, 3)
        tau0 = random_tau(rng, net.n_vertices, 3)

        state_a, trace_a, _ = fit_single(net, tau0, priors,
                                         max_iterations=6, epsilon_converge=1e-12)
        state_b, trace_b, _ = fit_single(permuted, tau0[perm], priors,
                                         max_iterations=6, epsilon_converge=1e-12)
        np.testing.assert_allclose(trace_a, trace_b, rtol=1e-9)
        np.testing.assert_allclose(state_a.tau[perm], state_b.tau,
                                   rtol=1e-7, atol=1e-12)
        np.testing.assert_allclose(state_a.chi, state_b.chi, rtol=1e-9)
        np.testing.assert_allclose(state_a.xi, state_b.xi, rtol=1e-9)


class TestFit:
    def test_deterministic_given_seed(self):
        sample = demo_sample(seed=3)
        config = FitConfig(n_clusters=3, n_restarts=3, seed=5)
        first = fit(sample.network, config)
        second = fit(sample.network, config)
        np.testing.assert_array_equal(first.elbo_trace, second.elbo_trace)
        np.testing.assert_array_equal(first.state.tau, second.state.tau)
        np.testing.assert_array_equal(first.map_labels, second.map_labels)
        assert first.restart_index == second.restart_index

    def test_single_restart_equals_fit_single(self):
        sample = demo_sample(seed=4)
        config = FitConfig(n_clusters=3, n_restarts=1, seed=9)
        result = fit(sample.network, config)
        priors = PriorHyperparams.jeffreys(2, 3, 3)
        tau0 = kmedoid_init(distance_matrix(sample.network), 3, seed=9)
        state, trace, converged = fit_single(sample.network, tau0, priors)
        np.testing.assert_array_equal(result.elbo_trace, trace)
        assert result.converged == converged

    def test_winner_has_the_best_final_bound(self):
        sample = demo_sample(seed=5)
        result = fit(sample.network, FitConfig(n_clusters=3, n_restarts=5, seed=0))
        finals = [r.final_elbo for r in result.restarts]
        assert len(result.restarts) == 5
        assert result.final_elbo == max(finals)
        assert result.restart_index == int(np.argmax(finals))
        winner = result.restarts[result.restart_index]
        assert winner.converged == result.converged
        assert winner.n_iterations == result.n_iterations

    def test_map_labels_are_argmax_responsibilities(self):
        sample = demo_sample(seed=6)
        result = fit(sample.network, FitConfig(n_clusters=3, n_restarts=2, seed=1))
        np.testing.assert_array_equal(result.map_labels,
                                      np.argmax(result.state.tau, axis=1))

    def test_rejects_invalid_network(self):
        with refused("edge type 9 at (0, 1) outside 0..2"):
            TypedNetwork(np.array([[0, 9], [0, 0]]), [0, 0], n_types=2, n_subgraphs=1)

    def test_rejects_mismatched_priors(self):
        sample = demo_sample(seed=7)
        priors = PriorHyperparams.jeffreys(1, 3, 3)
        with pytest.raises(ValueError, match=re.escape(
                "priors shaped for (S, K, C) = (1, 3, 3), expected (2, 3, 3)")):
            fit(sample.network, FitConfig(n_clusters=3, priors=priors))

    def test_prior_concentration_builds_matching_priors(self):
        sample = demo_sample(seed=8)
        by_knob = fit(sample.network,
                      FitConfig(n_clusters=2, n_restarts=1, seed=0,
                                prior_concentration=1.0))
        explicit = fit(sample.network,
                       FitConfig(n_clusters=2, n_restarts=1, seed=0,
                                 priors=PriorHyperparams.uniform(2, 2, 3)))
        np.testing.assert_array_equal(by_knob.elbo_trace, explicit.elbo_trace)

    def test_recovers_demo_clusters(self):
        sample = demo_sample(seed=9)
        result = fit(sample.network, FitConfig(n_clusters=3, seed=0))
        assert adjusted_rand_index(result.map_labels, sample.true_labels) >= 0.9


class TestFitConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="n_clusters"):
            FitConfig(n_clusters=0)
        with pytest.raises(ValueError, match="n_restarts"):
            FitConfig(n_clusters=1, n_restarts=0)
        with pytest.raises(ValueError, match="max_iterations"):
            FitConfig(n_clusters=1, max_iterations=0)
        with pytest.raises(ValueError, match="epsilon_converge"):
            FitConfig(n_clusters=1, epsilon_converge=0.0)
        with pytest.raises(ValueError, match="prior_concentration"):
            FitConfig(n_clusters=1, prior_concentration=-1.0)
