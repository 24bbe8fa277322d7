"""Where the fitting code calls its layers, and how often.

Profilers and the benchmark's tracer replace functions at the module
attributes through which the library calls them, so these names are part of
the library's observable behaviour.  ``fit`` and ``select_k`` build the
discordance matrix through ``rsm.medoids.distance_matrix``, once per call
and with the network as its first positional argument, and ``fit_single``
reaches ``elbo``, ``m_step_alpha`` and ``m_step_gamma`` through
``rsm.inference``.  A network is validated once, when it is built, so none
of ``fit``, ``fit_single`` and ``select_k`` calls ``validate_network``.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import rsm.inference
import rsm.medoids
import rsm.network
from rsm import (
    FitConfig,
    PriorHyperparams,
    benchmark_scenario,
    fit,
    fit_single,
    kmedoid_init,
    select_k,
)


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records each call's
    positional arguments; returns the list of records."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture(scope="module")
def network():
    return benchmark_scenario(1, 3).network


def test_fit_builds_the_discordance_matrix_once(monkeypatch, network):
    calls = count_calls(monkeypatch, rsm.medoids, "distance_matrix")
    inits = count_calls(monkeypatch, rsm.inference, "kmedoid_init")
    fit(network, FitConfig(n_clusters=3, n_restarts=5, seed=0))
    assert len(calls) == 1
    assert calls[0] == (network,)
    assert len(inits) == 5


def test_select_k_builds_the_discordance_matrix_once(monkeypatch, network):
    calls = count_calls(monkeypatch, rsm.medoids, "distance_matrix")
    inits = count_calls(monkeypatch, rsm.inference, "kmedoid_init")
    result = select_k(network, range(1, 7), FitConfig(n_clusters=1, n_restarts=2, seed=0))
    assert sorted(result.per_k) == [1, 2, 3, 4, 5, 6]
    assert len(calls) == 1
    assert calls[0] == (network,)
    assert len(inits) == 12


def test_fit_single_reaches_the_traced_updates(monkeypatch, network):
    names = ("elbo", "m_step_alpha", "m_step_gamma")
    calls = {name: count_calls(monkeypatch, rsm.inference, name) for name in names}
    validations = [count_calls(monkeypatch, module, "validate_network")
                   for module in (rsm.inference, rsm.network)]
    priors = PriorHyperparams.jeffreys(network.n_subgraphs, 3, network.n_types)
    tau0 = kmedoid_init(rsm.medoids.distance_matrix(network), 3, seed=0)
    _, trace, _ = fit_single(network, tau0, priors, max_iterations=4)
    assert len(calls["elbo"]) == len(trace)
    assert len(calls["m_step_alpha"]) == len(trace)
    assert len(calls["m_step_gamma"]) == 1
    np.testing.assert_array_equal(calls["m_step_alpha"][0][0], network.subgraph_of)
    config = FitConfig(n_clusters=2, n_restarts=2, max_iterations=4, seed=0)
    fit(network, config)
    select_k(network, range(1, 4), config)
    assert validations == [[], []]


def wrapped_attributes():
    """The ``(module, attribute)`` pairs that ``bench/tracing.py`` wraps,
    read from its ``WRAPPED`` table without importing the benchmark."""
    source = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    tree = ast.parse(source.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "WRAPPED" for t in node.targets):
            return [entry[:2] for entry in ast.literal_eval(node.value)]
    raise AssertionError("bench/tracing.py defines no WRAPPED table")


def test_traced_entry_points_exist():
    pairs = wrapped_attributes()
    assert pairs
    missing = [f"{module}.{name}" for module, name in pairs
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"the benchmark's tracer wraps missing attributes: {missing}"
