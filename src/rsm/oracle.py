"""Exact log evidence by enumerating every hard cluster assignment.

For a fixed assignment the parameters integrate out in closed form (Beta
and Dirichlet conjugacy), so the marginal likelihood of small networks can
be computed exactly as a log-sum-exp over all K^N assignments.  This is the
ground truth the variational bound is checked against: the bound must never
exceed it.

The normalizer helpers are deliberately re-implemented here rather than
imported from :mod:`rsm.inference`, so the two routes share no formula code;
they share only the check that rejects priors of another shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .inference import _check_priors
from .network import TypedNetwork
from .params import PriorHyperparams


@dataclass(frozen=True)
class OracleLimits:
    """Enumeration budget: refuse instances with more than this many assignments."""

    max_enumeration: int = 4096


def _log_beta(a, b):
    return gammaln(a) + gammaln(b) - gammaln(a + b)


def _log_dirichlet(x, axis):
    return gammaln(x).sum(axis=axis) - gammaln(x.sum(axis=axis))


def exact_log_evidence(net: TypedNetwork, n_clusters: int,
                       priors: PriorHyperparams,
                       limits: OracleLimits = OracleLimits()) -> float:
    """log p(network | K) marginalized over parameters and assignments.

    Enumerates all ``n_clusters ** n_vertices`` assignments; each
    contributes its closed-form conjugate marginal, and the terms are
    accumulated by log-sum-exp over the sorted values so the result does not
    depend on enumeration order.  The edge-presence factor is identical for
    every assignment and is added once at the end.

    Raises ValueError for priors shaped for another network or K, as
    :func:`rsm.inference.fit` does, or when the assignment count exceeds
    ``limits.max_enumeration``.
    """
    n = net.n_vertices
    k = int(n_clusters)
    if k < 1:
        raise ValueError(f"n_clusters must be >= 1, got {k}")
    _check_priors(priors, (net.n_subgraphs, k, net.n_types))
    n_assignments = k ** n
    if n_assignments > limits.max_enumeration:
        raise ValueError(
            f"{k}^{n} = {n_assignments} assignments exceed the enumeration "
            f"budget {limits.max_enumeration}")

    # Presence factor: counts depend only on the observed presence pattern.
    sub = net.subgraph_of
    onehot_sub = np.eye(net.n_subgraphs)[sub]
    edges = np.zeros((net.n_subgraphs, net.n_subgraphs))
    np.add.at(edges, (sub[net.src], sub[net.dst]), 1.0)
    sizes = onehot_sub.sum(axis=0)
    pairs = np.outer(sizes, sizes) - np.diag(sizes)
    gamma_term = float((_log_beta(priors.a0 + edges, priors.b0 + pairs - edges)
                        - _log_beta(priors.a0, priors.b0)).sum())

    if n == 0:
        return gamma_term

    # All assignments as a (k^n, n) matrix of cluster indices.
    z_all = np.array(np.unravel_index(np.arange(n_assignments), (k,) * n)).T
    z_onehot = np.eye(k)[z_all]                             # (k^n, n, k)

    chi = priors.chi0[None] + np.einsum("ns,znk->zsk", onehot_sub, z_onehot)
    alpha_terms = (_log_dirichlet(chi, axis=2).sum(axis=1)
                   - _log_dirichlet(priors.chi0, axis=1).sum())

    xi_counts = np.zeros((n_assignments, k, k, net.n_types))
    rows = np.arange(n_assignments)
    for i, j, c in zip(net.src, net.dst, net.types):
        xi_counts[rows, z_all[:, i], z_all[:, j], c - 1] += 1.0
    xi = priors.xi0[None] + xi_counts
    pi_terms = (_log_dirichlet(xi, axis=3).sum(axis=(1, 2))
                - _log_dirichlet(priors.xi0, axis=2).sum())

    log_terms = np.sort(alpha_terms + pi_terms)
    top = log_terms[-1]
    return gamma_term + float(top + np.log(np.exp(log_terms - top).sum()))
