"""Update equations, bound computation, and the fitting loop.

The update sweeps are checked against loop-based reference implementations
(see ``oracles.py``) that use their own digamma and ``math.lgamma``, so the
vectorized code and the reference share no numerical plumbing.
"""

import re
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from builders import (dense_inputs, dense_network, random_instance, random_state,
                      random_tau, refused)

import rsm.inference
import rsm.medoids
import rsm.network
from rsm import (
    FitConfig,
    PriorHyperparams,
    RsmParams,
    TypedNetwork,
    VariationalState,
    adjusted_rand_index,
    demo_params,
    distance_matrix,
    e_step,
    elbo,
    exact_log_evidence,
    fit,
    fit_single,
    kmedoid_init,
    m_step_alpha,
    m_step_gamma,
    m_step_pi,
    sample_network,
    select_k,
)


def demo_sample(seed=0):
    return sample_network(*demo_params(), seed)


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
        net = dense_network(np.zeros((0, 0), dtype=int), np.zeros(0, dtype=int),
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
        net = dense_network(np.zeros((6, 6), dtype=int), np.zeros(6, dtype=int),
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

    @pytest.mark.parametrize("epsilon", [0.0, -1.0, np.nan])
    def test_rejects_the_tolerance_fit_config_rejects(self, epsilon):
        net = random_instance(np.random.default_rng(14), 6, 1, 2, 1).network
        message = f"^epsilon_converge must be > 0, got {epsilon}$"
        with pytest.raises(ValueError, match=message):
            FitConfig(n_clusters=2, epsilon_converge=epsilon)
        with pytest.raises(ValueError, match=message):
            fit_single(net, np.full((6, 2), 0.5), PriorHyperparams.jeffreys(1, 2, 1),
                       epsilon_converge=epsilon)

    def test_rejects_out_of_range_edge_type(self):
        # four edges, one of type 5 > n_types: its presence would count in
        # a and b while xi has no slot for its type, so no such network
        # can be built to be fitted
        x = np.array([[0, 1, 0],
                      [2, 0, 5],
                      [1, 0, 0]])
        with refused("edge type 5 at (1, 2) outside 1..2"):
            dense_network(x, [0, 0, 0], n_types=2, n_subgraphs=1)

    def test_rejects_negative_subgraph_label(self):
        x = np.array([[0, 1, 0],
                      [2, 0, 1],
                      [1, 0, 0]])
        with refused("subgraph label -1 at vertex 1 outside 0..1"):
            dense_network(x, [0, -1, 1], n_types=2, n_subgraphs=2)

    def test_bound_never_decreases(self):
        rng = np.random.default_rng(15)
        for _ in range(4):
            net = random_instance(rng, 20, 2, 3, 2).network
            tau0 = kmedoid_init(distance_matrix(net), 3, seed=int(rng.integers(100)))
            priors = PriorHyperparams.jeffreys(2, 3, 2)
            _, trace, _ = fit_single(net, tau0, priors)
            assert np.all(np.diff(trace) >= -1e-8)


class TestLoopMemory:
    """``fit_single`` counts the bytes of its loop's live arrays and passes
    them to the memory rule before it builds anything; ``fit`` and
    ``select_k`` apply the same rule before they build the discordance or
    draw a start."""

    @staticmethod
    def loop_bytes(r, n, k, c, s, e):
        # float64: the taus and the out- and in-neighbour sums; beside them
        # three R N K temporaries of the scores or, when R > 1, the taus'
        # columns side by side and the product the sums are copied from; the
        # N x S one-hot; five xi stacks; 64 KiB of small arrays; and the
        # typed operator as CSR: 2E float64 values with int32 column indices,
        # and 2CN + 1 int32 row pointers
        taus, sums = r * n * k, 2 * r * n * c * k
        peak = taus + sums + max(3 * taus, taus + sums if r > 1 else 0)
        return (8 * (peak + n * s + 5 * r * k * k * c) + 2 ** 16
                + 12 * 2 * e + 4 * (2 * c * n + 1))

    @staticmethod
    def unreachable(*args, **kwargs):
        raise AssertionError("work was done past the rule")

    @pytest.mark.parametrize("n_restarts", [1, 2])
    def test_accepted_at_the_exact_figure_and_refused_a_byte_below(
            self, monkeypatch, n_restarts):
        net, fresh = demo_sample().network, demo_sample().network
        priors = PriorHyperparams.jeffreys(2, 3, 3)
        starts = np.stack([kmedoid_init(distance_matrix(net), 3, seed=r)
                           for r in range(n_restarts)])
        tau0 = starts if n_restarts > 1 else starts[0]
        size = self.loop_bytes(n_restarts, 30, 3, 3, 2, len(net.src))
        monkeypatch.setattr(rsm.network, "PHYSICAL_MEMORY", size)
        fit_single(net, tau0, priors, max_iterations=2)

        # a fresh network, whose operator is not built yet, is counted alike
        # and refused before the operator or the loop is built
        monkeypatch.setattr(TypedNetwork._type_operator, "func", self.unreachable)
        monkeypatch.setattr(rsm.inference, "_lockstep", self.unreachable)
        monkeypatch.setattr(rsm.network, "PHYSICAL_MEMORY", size - 1)
        for refused_net in (net, fresh):
            with pytest.raises(ValueError, match="^" + re.escape(
                    f"the update loop of R={n_restarts} restarts on N=30 vertices at K=3 "
                    f"takes 0.0 GiB ({size} bytes), more than the 0.0 GiB of physical "
                    "memory")):
                fit_single(refused_net, tau0, priors, max_iterations=2)

    @pytest.mark.parametrize("n_restarts", [1, 5])
    def test_the_peak_stays_under_the_count(self, n_restarts):
        # the sweep benchmark's shape: 3 x 1000 vertices, about 30 000
        # edges, three types and K=3, with the operator built before the
        # loop, as fit builds it with the discordance
        params = RsmParams(alpha=np.full((3, 3), 1 / 3),
                           gamma=np.where(np.eye(3, dtype=bool), 0.006, 0.002),
                           pi=np.full((3, 3, 3), 1 / 3))
        net = sample_network(params, np.repeat([0, 1, 2], 1000), 3).network
        operator = net._type_operator
        rng = np.random.default_rng(0)
        starts = np.eye(3)[rng.integers(0, 3, size=(n_restarts, 3000))]
        tau0 = starts if n_restarts > 1 else starts[0]
        priors = PriorHyperparams.jeffreys(3, 3, 3)
        fit_single(net, tau0, priors, max_iterations=1)  # loads scipy.special
        tracemalloc.start()
        try:
            fit_single(net, tau0, priors, max_iterations=5, epsilon_converge=1e-300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(a.nbytes for a in (operator.data, operator.indices, operator.indptr))
        counted = rsm.inference._loop_bytes(n_restarts, 3000, 3, 3, 3, len(net.src)) - held
        assert counted == self.loop_bytes(n_restarts, 3000, 3, 3, 3, len(net.src)) - held
        assert peak < counted

    @pytest.mark.parametrize("entry", ["fit", "select_k"])
    def test_fit_and_select_k_are_refused_before_any_work(self, monkeypatch, entry):
        # select_k checks the loop of its largest K, the largest loop
        net = demo_sample().network
        size = self.loop_bytes(5, 30, 4, 3, 2, len(net.src))
        for module, name in ((rsm.medoids, "distance_matrix"),
                             (rsm.inference, "kmedoid_init"),
                             (rsm.inference, "fit_single")):
            monkeypatch.setattr(module, name, self.unreachable)
        monkeypatch.setattr(rsm.network, "PHYSICAL_MEMORY", size - 1)
        with pytest.raises(ValueError, match="^" + re.escape(
                f"the update loop of R=5 restarts on N=30 vertices at K=4 "
                f"takes 0.0 GiB ({size} bytes), more than the 0.0 GiB of physical memory")):
            if entry == "fit":
                fit(net, FitConfig(n_clusters=4))
            else:
                select_k(net, [2, 4, 1], FitConfig(n_clusters=1))


class TestUpdatesRejectInvalidNetworks:
    """No update can be handed a network with a fault it would misread: one
    edge of type 5 with C=2 among four edges, or a subgraph label -1 with
    S=2.  Construction refuses such a network, naming its first fault.  The
    mixing update takes bare labels, and checks them."""

    x = np.array([[0, 1, 0],
                  [2, 0, 5],
                  [1, 0, 0]])
    type_fault = "edge type 5 at (1, 2) outside 1..2"
    label_fault = "subgraph label -1 at vertex 1 outside 0..1"

    def test_presence_update(self):
        # a and b would count the type-5 edge's presence
        with refused(self.type_fault):
            dense_network(self.x, [0, 0, 1], n_types=2, n_subgraphs=2)

    def test_mixing_update(self):
        with pytest.raises(ValueError, match=re.escape(
                self.label_fault + " of priors shaped for (S, K, C) = (2, 2, 2)")):
            m_step_alpha(np.array([0, -1, 1]), np.full((3, 2), 0.5),
                         PriorHyperparams.jeffreys(2, 2, 2))

    @pytest.mark.parametrize("labels", [[0, 0.7, 1], [0, 1.9, 1], [0, np.nan, 1]])
    def test_mixing_update_refuses_fractional_labels(self, labels):
        # the int64 cast would count vertex 1 in subgraph 0 or 1
        with pytest.raises(ValueError, match="subgraph_of must contain integers"):
            m_step_alpha(np.array(labels), np.full((3, 2), 0.5),
                         PriorHyperparams.jeffreys(2, 2, 2))

    def test_type_update(self):
        # xi has no slot for type 5; types are checked before labels
        with refused(self.type_fault):
            dense_network(self.x, [0, -1, 1], n_types=2, n_subgraphs=2)

    def test_responsibility_update(self):
        # label -1 would silently read the mixing row of subgraph S - 1
        with refused(self.label_fault):
            dense_network(np.minimum(self.x, 2), [0, -1, 1], n_types=2, n_subgraphs=2)


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


class TestStatesShapedForAnotherNetwork:
    """The sweep, the bound and the type and mixing updates refuse a state
    or tau shaped for another network (N = 12, S = 3, C = 3), naming both
    shapes, where they would otherwise misread rows or fail in a product."""

    def network(self):
        return random_instance(np.random.default_rng(21), 12, 3, 3, 3).network

    @staticmethod
    def state(n, s, c, k=3):
        return VariationalState(tau=np.full((n, k), 1.0 / k), chi=np.ones((s, k)),
                                a=np.ones((s, s)), b=np.ones((s, s)),
                                xi=np.ones((k, k, c)))

    def test_responsibility_update(self):
        # four chi rows would be read as the mixing rows of subgraphs 0..2
        with pytest.raises(ValueError, match=re.escape(
                "state dimensions (N, S, C) = (12, 4, 3) do not match "
                "the network's (12, 3, 3)")):
            e_step(self.network(), self.state(12, 4, 3))

    def test_bound(self):
        with pytest.raises(ValueError, match=re.escape(
                "state dimensions (N, S, C) = (12, 3, 2) do not match "
                "the network's (12, 3, 3)")):
            elbo(self.network(), self.state(12, 3, 2), PriorHyperparams.jeffreys(3, 3, 3))

    def test_type_update(self):
        with pytest.raises(ValueError, match=re.escape(
                "tau must be 12 x K, got shape (6, 3)")):
            m_step_pi(self.network(), np.full((6, 3), 1.0 / 3),
                      PriorHyperparams.jeffreys(3, 3, 3))

    def test_type_update_refuses_a_stack(self):
        # only m_step_alpha takes a leading restart axis
        with pytest.raises(ValueError, match=re.escape(
                "tau must be 12 x K, got shape (2, 12, 3)")):
            m_step_pi(self.network(), np.full((2, 12, 3), 1.0 / 3),
                      PriorHyperparams.jeffreys(3, 3, 3))

    def test_mixing_update(self):
        with pytest.raises(ValueError, match=re.escape(
                "tau must be 12 x K or R x 12 x K, got shape (6, 3)")):
            m_step_alpha(self.network().subgraph_of, np.full((6, 3), 1.0 / 3),
                         PriorHyperparams.jeffreys(3, 3, 3))

    def test_mixing_update_refuses_a_deeper_stack(self):
        with pytest.raises(ValueError, match=re.escape(
                "tau must be 12 x K or R x 12 x K, got shape (1, 2, 12, 3)")):
            m_step_alpha(self.network().subgraph_of, np.full((1, 2, 12, 3), 1.0 / 3),
                         PriorHyperparams.jeffreys(3, 3, 3))

    def test_mixing_update_of_a_stack_is_per_restart(self):
        rng = np.random.default_rng(3)
        taus = rng.dirichlet(np.ones(3), size=(2, 12))
        priors = PriorHyperparams.jeffreys(3, 3, 3)
        sub = self.network().subgraph_of
        stacked = m_step_alpha(sub, taus, priors)
        for r in range(2):
            assert stacked[r].tobytes() == m_step_alpha(sub, taus[r], priors).tobytes()


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

    @pytest.mark.parametrize("n_vertices", [10, 200])
    def test_one_cluster_adds_the_exact_type_counts(self, n_vertices):
        # at K=1 a fit's responsibilities are exactly 1.0, so the type
        # update adds exact integers to xi0, in bits that no order of the
        # sum, and so no number of BLAS threads, can change
        rng = np.random.default_rng(n_vertices)
        net = random_instance(rng, n_vertices, 2, 2, 3).network
        priors = PriorHyperparams.jeffreys(2, 1, 3)
        xi = m_step_pi(net, np.ones((n_vertices, 1)), priors)
        np.testing.assert_array_equal(xi, priors.xi0 + np.bincount(net.types - 1, minlength=3))
        state = fit(net, FitConfig(n_clusters=1, priors=priors, n_restarts=1, seed=0)).state
        assert np.all(state.tau == 1.0)
        np.testing.assert_array_equal(state.xi, xi)


class TestPermutationEquivariance:
    def test_relabeling_vertices_permutes_the_answer(self):
        rng = np.random.default_rng(17)
        sample = demo_sample(seed=2)
        net = sample.network
        perm = rng.permutation(net.n_vertices)
        permuted = dense_network(net.edge_types[perm][:, perm],
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

    @settings(max_examples=50, deadline=None)
    @given(dense_inputs(valid=True), st.data())
    def test_vertex_and_cluster_permutations_permute_the_fit(self, inputs, data):
        # vertex p[i] of the network is vertex i of the permuted one, and
        # cluster q[l] of a start is cluster l of the permuted start; hard
        # and soft starts alike
        x, sub, n_types, n_subgraphs = inputs
        n = len(x)
        k = data.draw(st.integers(1, 4), label="k")
        p = np.array(data.draw(st.permutations(range(n)), label="p"), dtype=np.int64)
        q = np.array(data.draw(st.permutations(range(k)), label="q"), dtype=np.int64)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        if data.draw(st.booleans(), label="hard start"):
            tau0 = np.eye(k)[rng.integers(0, k, size=n)]
        else:
            tau0 = random_tau(rng, n, k)
        net = dense_network(x, sub, n_types, n_subgraphs)
        permuted = dense_network(x[p][:, p], sub[p], n_types, n_subgraphs)
        priors = PriorHyperparams.jeffreys(n_subgraphs, k, n_types)
        options = dict(epsilon_converge=1e-10, max_iterations=30)

        state_a, trace_a, _ = fit_single(net, tau0, priors, **options)
        state_b, trace_b, _ = fit_single(permuted, tau0[p][:, q], priors, **options)
        assert len(trace_a) == len(trace_b)
        np.testing.assert_allclose(trace_b, trace_a, rtol=1e-9)
        np.testing.assert_allclose(state_b.tau, state_a.tau[p][:, q], rtol=0, atol=1e-9)


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
        with refused("edge type 9 at (0, 1) outside 1..2"):
            dense_network(np.array([[0, 9], [0, 0]]), [0, 0], n_types=2, n_subgraphs=1)

    def test_rejects_mismatched_priors(self):
        sample = demo_sample(seed=7)
        priors = PriorHyperparams.jeffreys(1, 3, 3)
        with pytest.raises(ValueError, match=re.escape(
                "priors shaped for (S, K, C) = (1, 3, 3), expected (2, 3, 3)")):
            fit(sample.network, FitConfig(n_clusters=3, priors=priors))

    def test_recovers_demo_clusters(self):
        sample = demo_sample(seed=9)
        result = fit(sample.network, FitConfig(n_clusters=3, seed=0))
        assert adjusted_rand_index(result.map_labels, sample.true_labels) >= 0.9


class TestFitOnRandomShapes:
    """``fit`` on random small networks: N=0 to 8, C=1 to 4, S=1 to 3, with
    empty subgraphs, networks without edges and K > N among them."""

    @settings(max_examples=50, deadline=None)
    @given(dense_inputs(valid=True), st.data())
    def test_bound_and_counts(self, inputs, data):
        x, sub, n_types, n_subgraphs = inputs
        net = dense_network(x, sub, n_types=n_types, n_subgraphs=n_subgraphs)
        n = net.n_vertices
        k = data.draw(st.sampled_from([k for k in range(1, 5) if k ** n <= 4096]))
        result = fit(net, FitConfig(n_clusters=k, n_restarts=2, seed=0))
        priors = PriorHyperparams.jeffreys(n_subgraphs, k, n_types)

        # the bound is at most the exact evidence; ties are real (gaps of
        # about 1e-14 occur), hence the relative slack
        exact = exact_log_evidence(net, k, priors)
        assert result.final_elbo <= exact + 1e-9 * (1 + abs(exact))

        state = result.state
        sizes = np.bincount(net.subgraph_of, minlength=n_subgraphs)
        np.testing.assert_allclose(state.chi.sum(axis=1) - priors.chi0.sum(axis=1),
                                   sizes, rtol=0, atol=1e-9)
        assert state.xi.sum() - priors.xi0.sum() == pytest.approx(len(net.src),
                                                                   abs=1e-9)
        np.testing.assert_array_equal(state.a + state.b - priors.a0 - priors.b0,
                                      np.outer(sizes, sizes) - np.diag(sizes))


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
