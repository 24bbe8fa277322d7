"""Where the fitting code calls its layers, and how often.

Profilers and the benchmark's tracer replace functions at the module
attributes through which the library calls them, so these names are part of
the library's observable behaviour.  ``fit`` and ``select_k`` build the
discordance matrix through ``rsm.medoids.distance_matrix``, once per call
and with the network as its first positional argument, and ``fit_single``
reaches ``elbo``, ``m_step_alpha`` and ``m_step_gamma`` through
``rsm.inference``: the first two once per iteration of its loop, whatever
the number of restarts it runs in lockstep, and the last once per call.  A
network is validated once, when it is built, so none of ``fit``,
``fit_single`` and ``select_k`` calls ``validate_network``.  A network
builds its typed operator once, whatever reads it, and the file path
(``generate``, ``eval``, loading, validating and writing a network) builds
none.
"""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import rsm.cli
import rsm.inference
import rsm.medoids
import rsm.network
from rsm import (
    FitConfig,
    PriorHyperparams,
    TypedNetwork,
    benchmark_scenario,
    e_step,
    fit,
    fit_single,
    kmedoid_init,
    m_step_pi,
    select_k,
)
from rsm.io import load_network, write_network_file


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


def count_builds(monkeypatch):
    """Replace the builder of ``TypedNetwork._type_operator`` by a wrapper
    that records the network of each call; returns the list of records."""
    calls = []
    build = TypedNetwork._type_operator.func

    def counted(net):
        calls.append(net)
        return build(net)

    monkeypatch.setattr(TypedNetwork._type_operator, "func", counted)
    return calls


def test_a_network_builds_its_operator_once(monkeypatch):
    net = benchmark_scenario(1, 3).network
    builds = count_builds(monkeypatch)
    config = FitConfig(n_clusters=3, n_restarts=2, max_iterations=4, seed=0)
    state = fit(net, config).state
    select_k(net, range(1, 7), config)
    e_step(net, state)
    m_step_pi(net, state.tau, PriorHyperparams.jeffreys(net.n_subgraphs, 3, net.n_types))
    assert builds == [net]


def test_the_file_path_builds_no_operator(monkeypatch, tmp_path):
    builds = count_builds(monkeypatch)
    out = tmp_path / "sample"
    assert rsm.cli.main(["generate", "--scenario", "1", "--seed", "0", "--out", str(out)]) == 0
    labels = str(out / "true_labels.txt")
    assert rsm.cli.main(["eval", labels, labels]) == 0
    net = load_network(out / "network.txt", out / "partition.txt")
    assert rsm.network.validate_network(net).ok
    write_network_file(tmp_path / "copy.txt", net)
    assert builds == []


def test_fit_single_reaches_the_traced_updates(monkeypatch, network):
    names = ("elbo", "m_step_alpha", "m_step_gamma")
    calls = {name: count_calls(monkeypatch, rsm.inference, name) for name in names}
    validations = [count_calls(monkeypatch, module, "validate_network")
                   for module in (rsm.inference, rsm.network)]
    priors = PriorHyperparams.jeffreys(network.n_subgraphs, 3, network.n_types)
    distances = rsm.medoids.distance_matrix(network)
    tau0 = kmedoid_init(distances, 3, seed=0)
    _, trace, _ = fit_single(network, tau0, priors, max_iterations=4)
    assert len(calls["elbo"]) == len(trace)
    assert len(calls["m_step_alpha"]) == len(trace)
    assert len(calls["m_step_gamma"]) == 1
    # the labels become a one-hot membership matrix once per call
    onehot = np.eye(network.n_subgraphs)[network.subgraph_of]
    for args in calls["m_step_alpha"]:
        np.testing.assert_array_equal(args[0], onehot)
    config = FitConfig(n_clusters=2, n_restarts=2, max_iterations=4, seed=0)
    fit(network, config)
    select_k(network, range(1, 4), config)
    assert validations == [[], []]


def test_lockstep_makes_one_traced_call_per_batched_iteration(monkeypatch, network):
    # each elbo and m_step_alpha call covers the restarts still running, so
    # at iteration t it holds the restarts whose traces are longer than t
    calls = {name: count_calls(monkeypatch, rsm.inference, name)
             for name in ("elbo", "m_step_alpha", "m_step_gamma")}
    priors = PriorHyperparams.jeffreys(network.n_subgraphs, 3, network.n_types)
    # a hard start, the same start softened, and the uniform start, a fixed
    # point of the updates that stops at the first iteration that can
    # compare two rounds, while the hard start still moves there
    hard = kmedoid_init(rsm.medoids.distance_matrix(network), 3, seed=0)
    starts = np.stack([hard, (hard + 1 / 3) / 2, np.full_like(hard, 1 / 3)])
    _, records = fit_single(network, starts, priors)
    lengths = np.array([record.n_iterations for record in records])
    assert lengths[2] == 2 < lengths[0]
    assert len(calls["elbo"]) == len(calls["m_step_alpha"]) == lengths.max()
    assert len(calls["m_step_gamma"]) == 1
    running = [int(np.sum(lengths > t)) for t in range(lengths.max())]
    assert [args[1].tau.shape[0] for args in calls["elbo"]] == running
    assert [args[1].shape[0] for args in calls["m_step_alpha"]] == running


def test_the_results_the_benchmark_reads(network):
    # bench/tracing.py notes len(result[1]) of each traced fit_single call,
    # one entry per restart of a stack, and the sweep workload reads an
    # N x K call's result as (state, bound trace, converged)
    priors = PriorHyperparams.jeffreys(network.n_subgraphs, 3, network.n_types)
    distances = rsm.medoids.distance_matrix(network)
    starts = np.stack([kmedoid_init(distances, 3, seed=r) for r in range(4)])
    stacked = fit_single(network, starts, priors, max_iterations=6)
    assert len(stacked) == 2 and len(stacked[1]) == len(starts)
    single = fit_single(network, starts[0], priors, max_iterations=6)
    assert len(single) == 3
    assert single[1].ndim == 1 and len(single[1]) == stacked[1][0].n_iterations
    np.testing.assert_array_equal(single[1], stacked[1][0].elbo_trace)
    assert single[2] is stacked[1][0].converged


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
