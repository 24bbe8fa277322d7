"""Restarts run in lockstep against the same restarts run alone.

``fit_single`` takes a stack of R starts and runs them as one loop: one
sparse product for every restart's neighbour sums, batched matrix products
for the ``xi`` update and the scores, and a bound and stop test per
restart.  Each restart must come out bit for bit as ``fit_single`` gives it
on its own start: the same trace (length included), tau, chi, a, b, xi and
converged flag, with the stop reason that flag and the cap imply.  The
shapes drawn include N=0, K > N, C=1, empty subgraphs, networks without
edges, and iteration caps that stop some restarts but not others.  A
restart that fails numerically fails alone: its state is None and its
record's stop reason carries the message it raises on its own, and the
others finish.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from builders import dense_network

import rsm.inference
from rsm import (
    FitConfig,
    PriorHyperparams,
    RestartSummary,
    VariationalState,
    demo_params,
    distance_matrix,
    fit,
    fit_single,
    kmedoid_init,
    sample_network,
)

SCORES_FAILED = "non-finite responsibility scores; hyperparameters are corrupted"


@st.composite
def stacks(draw):
    """(net, starts, priors): a valid network, an R x N x K stack of hard
    and soft starts (soft rows may hold exact zeros), and priors."""
    n = draw(st.integers(0, 9))
    n_types = draw(st.integers(1, 4))
    n_subgraphs = draw(st.integers(1, 3))
    k = draw(st.integers(1, 11))
    types = st.just(0) if draw(st.booleans()) else st.integers(0, n_types)
    x = draw(arrays(np.int64, (n, n), elements=types))
    sub = draw(arrays(np.int64, n, elements=st.integers(0, n_subgraphs - 1)))
    net = dense_network(x, sub, n_types, n_subgraphs)
    labels = arrays(np.int64, n, elements=st.integers(0, k - 1))
    starts = []
    for _ in range(draw(st.integers(1, 4))):
        tau = np.eye(k)[draw(labels)]
        if draw(st.booleans()):
            tau = draw(arrays(np.float64, (n, k), elements=st.floats(0.0, 1.0))) + 1e-3 * tau
            tau /= tau.sum(axis=1, keepdims=True)
        starts.append(tau)
    prior = draw(st.sampled_from([0.5, 1.0, 2.5]))
    return net, np.stack(starts), PriorHyperparams.constant(n_subgraphs, k, n_types, prior)


def assert_alone_equals_lockstep(net, starts, priors, **options):
    """Run the stack and each start alone; return the stack's outcome."""
    states, records = fit_single(net, starts, priors, **options)
    assert len(states) == len(records) == len(starts)
    for r, start in enumerate(starts):
        record = records[r]
        assert isinstance(record, RestartSummary)
        try:
            alone, trace, done = fit_single(net, start, priors, **options)
        except FloatingPointError as exc:
            assert states[r] is None
            assert record.stop_reason == f"failed: {exc}"
            assert len(record.elbo_trace) == 0 and not record.converged
            continue
        assert isinstance(states[r], VariationalState)
        mine = record.elbo_trace
        assert mine.dtype == trace.dtype and mine.shape == trace.shape
        assert mine.tobytes() == trace.tobytes()
        assert record.converged is done
        assert record.stop_reason == ("converged" if done else "max_iterations")
        if not done:
            assert len(trace) == options.get("max_iterations", 200)
        for name in ("tau", "chi", "a", "b", "xi"):
            mine, theirs = getattr(states[r], name), getattr(alone, name)
            assert mine.shape == theirs.shape
            assert mine.tobytes() == theirs.tobytes(), name
    return states, records


class TestAgainstRestartsAlone:
    @settings(max_examples=60, deadline=None)
    @given(stacks(), st.integers(1, 30), st.sampled_from([1e-6, 1e-3]))
    def test_every_restart_is_bit_identical_to_its_own_run(
            self, drawn, max_iterations, epsilon):
        net, starts, priors = drawn
        assert_alone_equals_lockstep(net, starts, priors, max_iterations=max_iterations,
                                     epsilon_converge=epsilon)

    def test_a_cap_that_stops_some_restarts_but_not_others(self):
        net = sample_network(*demo_params(), 4).network
        priors = PriorHyperparams.jeffreys(net.n_subgraphs, 3, net.n_types)
        distances = distance_matrix(net)
        starts = np.stack([kmedoid_init(distances, 3, seed=r) for r in range(5)])
        lengths = sorted(len(fit_single(net, start, priors)[1]) for start in starts)
        cap = lengths[2]
        assert lengths[0] < cap < lengths[-1]
        _, records = assert_alone_equals_lockstep(net, starts, priors, max_iterations=cap)
        reasons = {record.stop_reason for record in records}
        assert reasons == {"converged", "max_iterations"}
        assert {record.n_iterations for record in records} >= {lengths[0], cap}

    def test_an_empty_stack_has_no_restarts(self):
        net = sample_network(*demo_params(), 4).network
        priors = PriorHyperparams.jeffreys(net.n_subgraphs, 2, net.n_types)
        assert fit_single(net, np.zeros((0, net.n_vertices, 2)), priors) == ((), ())

    def test_rejects_a_stack_of_another_shape(self):
        net = sample_network(*demo_params(), 4).network
        priors = PriorHyperparams.jeffreys(net.n_subgraphs, 2, net.n_types)
        message = "tau0 must be 30 x 2 or R x 30 x 2, got shape (2, 30, 3)"
        with pytest.raises(ValueError, match=re.escape(message)):
            fit_single(net, np.full((2, 30, 3), 1 / 3), priors)
        with pytest.raises(ValueError, match="tau0 rows must sum to 1"):
            fit_single(net, np.full((2, 30, 2), 0.7), priors)


def poison(monkeypatch, name, rows, calls=1):
    """Make ``rsm.inference.name`` return NaN at the given batch rows of
    its first ``calls`` calls, as corrupted hyperparameters would."""
    original = getattr(rsm.inference, name)
    seen = []

    def poisoned(*args, **kwargs):
        result = original(*args, **kwargs)
        seen.append(None)
        if len(seen) <= calls:
            result = np.array(result)
            result[[row for row in rows if row < len(result)]] = np.nan
        return result

    monkeypatch.setattr(rsm.inference, name, poisoned)


class TestFailures:
    """A numerical failure injected into one restart's scores or bound."""

    def instance(self):
        net = sample_network(*demo_params(), 4).network
        priors = PriorHyperparams.jeffreys(net.n_subgraphs, 3, net.n_types)
        distances = distance_matrix(net)
        starts = np.stack([kmedoid_init(distances, 3, seed=r) for r in range(3)])
        alone = [fit_single(net, start, priors) for start in starts]
        return net, starts, priors, alone

    @pytest.mark.parametrize("name, row, message", [
        ("_scores", 0, SCORES_FAILED),
        ("elbo", 1, "non-finite bound value nan"),
    ])
    def test_one_restart_fails_alone(self, monkeypatch, name, row, message):
        net, starts, priors, alone = self.instance()
        poison(monkeypatch, name, [row])
        states, records = fit_single(net, starts, priors)
        assert states[row] is None
        assert records[row].stop_reason == f"failed: {message}"
        assert len(records[row].elbo_trace) == 0 and not records[row].converged
        for r in set(range(3)) - {row}:
            state, trace, done = alone[r]
            assert records[r].elbo_trace.tobytes() == trace.tobytes()
            assert states[r].tau.tobytes() == state.tau.tobytes()
            assert records[r].converged is done

    def test_a_single_start_raises_the_message(self, monkeypatch):
        net, starts, priors, _ = self.instance()
        poison(monkeypatch, "_scores", [0])
        with pytest.raises(FloatingPointError, match=re.escape(SCORES_FAILED)):
            fit_single(net, starts[0], priors)

    def test_fit_keeps_the_restarts_that_finish(self, monkeypatch):
        net, _, _, _ = self.instance()
        config = FitConfig(n_clusters=3, n_restarts=3, seed=0)
        clean = fit(net, config)
        poison(monkeypatch, "_scores", [clean.restart_index])
        result = fit(net, config)
        failed = result.restarts[clean.restart_index]
        assert failed.stop_reason == f"failed: {SCORES_FAILED}"
        assert len(failed.elbo_trace) == 0 and not failed.converged
        assert result.restart_index != clean.restart_index
        kept = [r for r in range(3) if r != clean.restart_index]
        for r in kept:
            assert (result.restarts[r].elbo_trace.tobytes()
                    == clean.restarts[r].elbo_trace.tobytes())

    def test_every_restart_failed_names_each_restart(self, monkeypatch):
        net, _, _, _ = self.instance()
        poison(monkeypatch, "_scores", range(3))
        message = "every restart failed: " + "; ".join(
            f"restart {r}: {SCORES_FAILED}" for r in range(3))
        with pytest.raises(FloatingPointError, match=re.escape(message) + "$"):
            fit(net, FitConfig(n_clusters=3, n_restarts=3, seed=0))
