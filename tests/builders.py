"""Random-instance builders, a network built from an N x N type matrix, a
strategy for random dense network inputs, and the refusal of invalid
networks, shared across test modules.

The library builds a network only from its edge list
(``TypedNetwork.from_edges``); ``dense_network`` is the tests' shorthand
that writes a small network as the matrix it expands to."""

import re

import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rsm import RsmParams, TypedNetwork, VariationalState, sample_network


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


def dense_network(x, subgraph_of, n_types, n_subgraphs):
    """The network whose edges are the off-diagonal nonzeros of the N x N
    matrix ``x``, each of type ``x[i, j]``, built by ``from_edges``; the
    diagonal is dropped, and any other entry is checked there."""
    x = np.asarray(x)
    present = x != 0
    np.fill_diagonal(present, False)
    src, dst = np.nonzero(present)
    return TypedNetwork.from_edges(len(x), src, dst, x[src, dst], subgraph_of,
                                   n_types, n_subgraphs)


def refused(violation):
    """Expect ``TypedNetwork`` construction to fail naming exactly this
    violation."""
    return pytest.raises(ValueError, match=re.escape("invalid network: " + violation) + "$")


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


@st.composite
def dense_inputs(draw, max_vertices=8, valid=False):
    """(x, subgraph_of, n_types, n_subgraphs) with arbitrary diagonals.

    Unless ``valid``, off-diagonal types may fall outside ``0..n_types`` and
    subgraph labels outside ``0..n_subgraphs - 1``.
    """
    n = draw(st.integers(0, max_vertices))
    n_types = draw(st.integers(1, 4))
    n_subgraphs = draw(st.integers(1, 3))
    types = st.one_of(st.just(0), st.integers(1, n_types))
    labels = st.integers(0, n_subgraphs - 1)
    if not valid:
        types = st.one_of(types, st.integers(-3, n_types + 3))
        labels = st.one_of(labels, st.integers(-2, n_subgraphs + 1))
    x = draw(arrays(np.int64, (n, n), elements=types))
    if n:
        diagonal = draw(arrays(np.int64, n, elements=st.integers(-3, n_types + 3)))
        np.fill_diagonal(x, diagonal)
    sub = draw(arrays(np.int64, n, elements=labels))
    return x, sub, n_types, n_subgraphs
