"""The sparse ``xi`` update and responsibility sweep against the dense masks.

``m_step_pi``, ``e_step`` and ``fit_single`` read per-type neighbour sums
from sparse operators over the edge list.  On random valid networks
(N=0 to 9, C=1 to 4, K up to 11 so K > N, up to 3 subgraphs so some are
empty, networks without edges) they must match the dense N x N mask
products in ``oracles.py`` to 1e-12 relative; only the order of the sums
differs.  ``fit_single`` is compared one iteration at a time, from its own
state, because the sweep can amplify rounding differences over a whole
trajectory.  A memory test requires that a fit on a sparse 2000-vertex
network allocates far less than one N x N float64 array.

``fit_single`` scores each iteration through an unchecked state and the
prior normalizers cached on ``PriorHyperparams``; its last bound must equal,
bit for bit, both the public ``elbo`` of the state it returns and the bound
written out with the normalizers computed afresh.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import betaln, xlogy

import oracles

from rsm import (
    PriorHyperparams,
    TypedNetwork,
    VariationalState,
    e_step,
    elbo,
    fit_single,
    m_step_pi,
)
from rsm.params import log_dirichlet_norm

RTOL = 1e-12


@st.composite
def instances(draw):
    """(net, tau, chi, xi): a valid network and a state with positive
    hyperparameters; rows of tau sum to 1 and may hold exact zeros."""
    n = draw(st.integers(0, 9))
    n_types = draw(st.integers(1, 4))
    n_subgraphs = draw(st.integers(1, 3))
    k = draw(st.integers(1, 11))
    types = st.integers(0, n_types)
    if draw(st.booleans()):
        types = st.just(0)
    x = draw(arrays(np.int64, (n, n), elements=types))
    sub = draw(arrays(np.int64, n, elements=st.integers(0, n_subgraphs - 1)))
    net = TypedNetwork(x, sub, n_types, n_subgraphs)
    raw = draw(arrays(np.float64, (n, k), elements=st.floats(0.0, 1.0)))
    raw[np.arange(n), draw(arrays(np.int64, n, elements=st.integers(0, k - 1)))] += 1e-3
    tau = raw / raw.sum(axis=1, keepdims=True)
    positive = st.floats(0.1, 10.0)
    chi = draw(arrays(np.float64, (n_subgraphs, k), elements=positive))
    xi = draw(arrays(np.float64, (k, k, n_types), elements=positive))
    return net, tau, chi, xi


class TestAgainstDenseMasks:
    @settings(max_examples=150, deadline=None)
    @given(instances(), st.sampled_from([0.5, 1.0, 2.5]))
    def test_type_update(self, data, prior):
        net, tau, _, _ = data
        priors = PriorHyperparams.constant(net.n_subgraphs, tau.shape[1],
                                           net.n_types, prior)
        expected = oracles.dense_update_xi(oracles.dense_type_masks(net), tau,
                                           priors.xi0)
        np.testing.assert_allclose(m_step_pi(net, tau, priors), expected,
                                   rtol=RTOL, atol=0)

    @settings(max_examples=150, deadline=None)
    @given(instances())
    def test_responsibility_sweep(self, data):
        net, tau, chi, xi = data
        blocks = np.ones((net.n_subgraphs, net.n_subgraphs))
        state = VariationalState(tau=tau, chi=chi, a=blocks, b=blocks, xi=xi)
        expected = oracles.normalize_scores(oracles.dense_scores(
            oracles.dense_type_masks(net), tau, chi, xi, net.subgraph_of))
        np.testing.assert_allclose(e_step(net, state), expected,
                                   rtol=RTOL, atol=1e-300)

    @settings(max_examples=100, deadline=None)
    @given(instances(), st.sampled_from([0.5, 1.0, 2.5]))
    def test_ten_iteration_bound_trace(self, data, prior):
        # The sweep can amplify rounding differences from one iteration to
        # the next (a near-symmetric start on a complete graph breaks its
        # symmetry either way), so two 10-iteration trajectories need not
        # agree to 1e-12.  Each iteration is therefore checked from the
        # library's own state: the bound and xi the dense reference gives
        # for that iteration's tau, and the tau its sweep gives next.
        net, tau0, _, _ = data
        priors = PriorHyperparams.constant(net.n_subgraphs, tau0.shape[1],
                                           net.n_types, prior)
        _, trace, converged = fit_single(net, tau0, priors, max_iterations=10)
        masks = oracles.dense_type_masks(net)
        previous = ref = None
        for t in range(len(trace)):
            step, step_trace, _ = fit_single(net, tau0, priors, max_iterations=t + 1)
            np.testing.assert_array_equal(step_trace, trace[:t + 1])
            if ref is not None:
                swept = oracles.normalize_scores(oracles.dense_scores(
                    masks, ref.tau, ref.chi, ref.xi, net.subgraph_of))
                np.testing.assert_allclose(step.tau, swept, rtol=RTOL, atol=1e-300)
            previous = ref
            ref, ref_trace, _ = oracles.dense_fit(net, step.tau, priors, 1)
            np.testing.assert_allclose(step_trace[-1], ref_trace[0], rtol=RTOL, atol=0)
            np.testing.assert_allclose(step.xi, ref.xi, rtol=RTOL, atol=0)
        if len(trace) < 10:
            assert converged
        else:
            # a and b do not change after the first iteration
            change = max(np.max(np.abs(ref.chi - previous.chi), initial=0.0),
                         np.max(np.abs(ref.xi - previous.xi), initial=0.0))
            assert converged == (change < 1e-6)


def uncached_elbo(state, priors):
    """The bound with every prior normalizer computed here, in the same
    element order as ``rsm.inference.elbo``."""
    return (float((betaln(state.a, state.b) - betaln(priors.a0, priors.b0)).sum())
            + float((log_dirichlet_norm(state.chi, axis=1)
                     - log_dirichlet_norm(priors.chi0, axis=1)).sum())
            + float((log_dirichlet_norm(state.xi, axis=2)
                     - log_dirichlet_norm(priors.xi0, axis=2)).sum())
            - float(xlogy(state.tau, state.tau).sum()))


@st.composite
def random_priors(draw, net, n_clusters):
    positive = st.floats(0.05, 20.0)
    s, k, c = net.n_subgraphs, n_clusters, net.n_types
    return PriorHyperparams(
        chi0=draw(arrays(np.float64, (s, k), elements=positive)),
        a0=draw(arrays(np.float64, (s, s), elements=positive)),
        b0=draw(arrays(np.float64, (s, s), elements=positive)),
        xi0=draw(arrays(np.float64, (k, k, c), elements=positive)))


class TestBoundConsistency:
    @settings(max_examples=100, deadline=None)
    @given(instances(), st.integers(1, 12), st.data())
    def test_last_bound_is_the_public_bound_of_the_returned_state(
            self, data, max_iterations, draw):
        net, tau0, _, _ = data
        priors = draw.draw(random_priors(net, tau0.shape[1]))
        state, trace, _ = fit_single(net, tau0, priors, max_iterations=max_iterations)
        assert isinstance(state, VariationalState)
        for name in ("tau", "chi", "a", "b", "xi"):
            assert not getattr(state, name).flags.writeable
        # the returned state passes the checking constructor
        rebuilt = VariationalState(tau=state.tau, chi=state.chi, a=state.a,
                                   b=state.b, xi=state.xi)
        fresh = PriorHyperparams(chi0=priors.chi0, a0=priors.a0, b0=priors.b0,
                                 xi0=priors.xi0)
        assert trace[-1] == elbo(net, state, priors)
        assert trace[-1] == elbo(net, rebuilt, fresh)
        assert trace[-1] == uncached_elbo(state, priors)


class TestMemory:
    def test_sparse_fit_allocates_far_less_than_one_dense_matrix(self):
        n, out_degree, n_types, k = 2000, 10, 3, 3
        rng = np.random.default_rng(0)
        x = np.zeros((n, n), dtype=np.int64)
        rows = np.repeat(np.arange(n), out_degree)
        x[rows, rng.integers(0, n, size=n * out_degree)] = rng.integers(
            1, n_types + 1, size=n * out_degree)
        net = TypedNetwork(x, rng.integers(0, 2, size=n), n_types, 2)
        del x
        priors = PriorHyperparams.constant(2, k, n_types, 0.5)
        tau0 = np.eye(k)[rng.integers(0, k, size=n)]

        tracemalloc.start()
        try:
            _, trace, _ = fit_single(net, tau0, priors, max_iterations=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(trace) == 5
        # one dense N x N float64 array is 32 MB here
        assert peak < n * n * 8 / 8, f"fit_single peaked at {peak / 2**20:.2f} MiB"
