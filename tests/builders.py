"""Random-instance builders, and the refusal of invalid networks, shared
across test modules."""

import re

import numpy as np
import pytest

from rsm import RsmParams, VariationalState, sample_network


def random_model(rng, n_subgraphs, n_clusters, n_types):
    """Random parameter tables with the given dimensions."""
    alpha = rng.dirichlet(np.full(n_clusters, 2.0), size=n_subgraphs)
    gamma = rng.uniform(0.1, 0.7, size=(n_subgraphs, n_subgraphs))
    pi = rng.dirichlet(np.full(n_types, 1.2), size=(n_clusters, n_clusters))
    return RsmParams(alpha=alpha, gamma=gamma, pi=pi)


def random_instance(rng, n_vertices, n_subgraphs, n_clusters, n_types):
    """A network sampled from random parameters; true labels ride along.

    The first ``n_subgraphs`` vertices take one subgraph each so no subgraph
    is empty; the rest are labeled at random.
    """
    if n_vertices < n_subgraphs:
        raise ValueError("need at least one vertex per subgraph")
    params = random_model(rng, n_subgraphs, n_clusters, n_types)
    sub = np.concatenate([
        np.arange(n_subgraphs),
        rng.integers(0, n_subgraphs, size=n_vertices - n_subgraphs),
    ])
    return sample_network(params, sub, seed=int(rng.integers(2 ** 31)))


def refused(*violations):
    """Expect ``TypedNetwork`` construction to fail naming exactly these
    violations, in order."""
    message = "invalid network: " + "; ".join(violations)
    return pytest.raises(ValueError, match=re.escape(message) + "$")


def random_tau(rng, n_vertices, n_clusters):
    """Row-normalized responsibilities bounded away from zero."""
    raw = rng.uniform(0.05, 1.0, size=(n_vertices, n_clusters))
    return raw / raw.sum(axis=1, keepdims=True)


def random_state(rng, net, n_clusters):
    """A structurally valid state with arbitrary positive hyperparameters."""
    s, c = net.n_subgraphs, net.n_types
    return VariationalState(
        tau=random_tau(rng, net.n_vertices, n_clusters),
        chi=rng.uniform(0.3, 8.0, size=(s, n_clusters)),
        a=rng.uniform(0.3, 9.0, size=(s, s)),
        b=rng.uniform(0.3, 9.0, size=(s, s)),
        xi=rng.uniform(0.3, 6.0, size=(n_clusters, n_clusters, c)),
    )
