"""Variational Bayes EM for clustering a typed network with known subgraphs.

The posterior over cluster memberships and model parameters is approximated
by a factorized distribution: independent categorical responsibilities tau
for the memberships, a Dirichlet per mixing row (parameters chi), a Beta per
presence probability (parameters a, b), and a Dirichlet per type
distribution (parameters xi).  Updates alternate a closed-form
hyperparameter sweep (:func:`m_step_gamma`, :func:`m_step_alpha`,
:func:`m_step_pi`) with a synchronous responsibility sweep (:func:`e_step`);
:func:`elbo` scores the state right after a hyperparameter sweep.

The ``xi`` update and the responsibility sweep are sums over present edges.
Both read per-type neighbour sums of tau over out- and in-edges, taken from
one sparse operator built from the network's edge list, so an iteration
costs O(E K + N K^2 C) and no N x N array is formed; only the k-medoid
discordance matrix (:func:`rsm.medoids.distance_matrix`) is N x N.

What cannot change is computed outside the loops.  :func:`fit` builds the
k-medoid discordance matrix once and shares it across restarts
(:func:`rsm.selection.select_k` shares one across every K).
:func:`fit_single` builds the sparse operator and the presence update
(``a``, ``b``) once, keeps tau and the hyperparameters as plain arrays, and
builds one checked :class:`~rsm.params.VariationalState` on exit.  The
prior-only normalizers of the bound are cached on the
:class:`~rsm.params.PriorHyperparams`.

All updates maximize the same evidence lower bound

    L(q) = sum_rs log B(a_rs, b_rs)/B(a0_rs, b0_rs)
         + sum_s  log C(chi_s)/C(chi0_s)
         + sum_kl log C(xi_kl)/C(xi0_kl)
         - sum_ik tau_ik log tau_ik

where B is the Beta function and C the Dirichlet normalizer
C(x) = prod_d Gamma(x_d) / Gamma(sum_d x_d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.special import betaln, digamma, xlogy

from . import medoids
from .medoids import kmedoid_init
# validate_network stays an attribute here because bench/tracing.py wraps it
from .network import TypedNetwork, validate_network  # noqa: F401
from .params import (
    FitResult,
    PriorHyperparams,
    RestartSummary,
    VariationalState,
    check_row_stochastic,
    log_dirichlet_norm,
)


@dataclass(frozen=True)
class FitConfig:
    """Knobs of :func:`fit`.

    priors defaults to every hyperparameter equal to ``prior_concentration``
    (1/2 unless overridden), built to match the network and ``n_clusters``;
    pass an explicit :class:`~rsm.params.PriorHyperparams` to override.
    Restart r initializes from seed ``seed + r``.
    """

    n_clusters: int
    priors: PriorHyperparams | None = None
    prior_concentration: float = 0.5
    n_restarts: int = 5
    max_iterations: int = 200
    epsilon_converge: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if self.n_clusters < 1:
            raise ValueError(f"n_clusters must be >= 1, got {self.n_clusters}")
        if self.n_restarts < 1:
            raise ValueError(f"n_restarts must be >= 1, got {self.n_restarts}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if not self.epsilon_converge > 0:
            raise ValueError(f"epsilon_converge must be > 0, got {self.epsilon_converge}")
        if not self.prior_concentration > 0:
            raise ValueError(
                f"prior_concentration must be > 0, got {self.prior_concentration}")


def _check_priors(priors: PriorHyperparams, expected: tuple[int, int, int]) -> None:
    """Reject priors whose (S, K, C) is not ``expected``: one tuple compare."""
    shape = priors.chi0.shape + priors.xi0.shape[2:]
    if shape != expected:
        raise ValueError(f"priors shaped for (S, K, C) = {shape}, expected {expected}")


def m_step_gamma(net: TypedNetwork, priors: PriorHyperparams
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Posterior Beta parameters of the presence probabilities.

    For each ordered subgraph pair (r, s), ``a`` gains the number of present
    edges from r-vertices to s-vertices and ``b`` the number of absent ones;
    responsibilities play no role.  Hence a + b - (a0 + b0) equals the number
    of ordered vertex pairs in the block.  Priors shaped for another network
    are rejected.
    """
    _check_priors(priors, (net.n_subgraphs, priors.n_clusters, net.n_types))
    sub = net.subgraph_of
    n_sub = priors.n_subgraphs
    edges = np.bincount(sub[net.src] * n_sub + sub[net.dst],
                        minlength=n_sub * n_sub).reshape(n_sub, n_sub)
    counts = np.bincount(sub, minlength=n_sub)
    pairs = np.outer(counts, counts) - np.diag(counts)
    return priors.a0 + edges, priors.b0 + pairs - edges


def m_step_alpha(subgraph_of: np.ndarray, tau: np.ndarray,
                 priors: PriorHyperparams) -> np.ndarray:
    """Posterior Dirichlet parameters of the mixing rows.

    chi[s, k] gains the total responsibility mass for cluster k among the
    vertices of subgraph s, so each row's added mass equals the subgraph
    size.  A subgraph label outside the priors' ``0..S - 1``, or tau with
    another K than the priors, is rejected; either message names the
    priors' (S, K, C).
    """
    tau = np.asarray(tau, dtype=np.float64)
    shape = (priors.n_subgraphs, priors.n_clusters, priors.n_types)
    _check_priors(priors, (shape[0], tau.shape[1], shape[2]))
    sub = np.asarray(subgraph_of, dtype=np.int64)
    bad = np.nonzero((sub < 0) | (sub >= shape[0]))[0]
    if len(bad):
        raise ValueError(f"subgraph label {sub[bad[0]]} at vertex {bad[0]} outside "
                         f"0..{shape[0] - 1} of priors shaped for (S, K, C) = {shape}")
    return priors.chi0 + np.eye(shape[0])[sub].T @ tau


def m_step_pi(net: TypedNetwork, tau: np.ndarray,
              priors: PriorHyperparams) -> np.ndarray:
    """Posterior Dirichlet parameters of the per-cluster-pair type distributions.

    xi[k, l, c] gains sum over ordered pairs (i, j), i != j, of
    tau[i, k] * tau[j, l] for each edge i->j of type c, so the total added
    mass equals the number of present edges.  Priors shaped for another
    network or K are rejected.
    """
    tau = np.asarray(tau, dtype=np.float64)
    _check_priors(priors, (net.n_subgraphs, tau.shape[1], net.n_types))
    out_sums, _ = _neighbour_sums(_type_operator(net), tau, net.n_types)
    return _update_xi(out_sums, tau, priors.xi0)


def _type_operator(net: TypedNetwork) -> sparse.csr_array:
    """(2 C N) x N sparse matrix of the typed out- and in-neighbours.

    Edge i -> j of type c puts a 1 at ((c - 1) N + i, j) in the upper half
    and at (C N + (c - 1) N + j, i) in the lower half, so one product with
    tau gives the sums over out-neighbours and over in-neighbours.  Within a
    row the columns ascend, as in two separate operators, so each sum adds
    the same terms in the same order.  Types lie in ``1..n_types``, as the
    network's construction ensures.
    """
    n, c = net.n_vertices, net.n_types
    rows = (net.types - 1) * n
    return sparse.csr_array(
        (np.ones(2 * len(net.src)),
         (np.concatenate([rows + net.src, c * n + rows + net.dst]),
          np.concatenate([net.dst, net.src]))),
        shape=(2 * c * n, n))


def _neighbour_sums(op: sparse.csr_array, tau: np.ndarray, n_types: int
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Out- and in-neighbour sums, each N x (C K): entry (i, c K + l) of the
    first is the sum of tau[j, l] over the j with an edge i -> j of type c,
    and of the second over the j with an edge j -> i of type c."""
    n, k = tau.shape
    sums = (op @ tau).reshape(2, n_types, n, k).transpose(0, 2, 1, 3)
    out_sums, in_sums = sums.reshape(2, n, n_types * k)
    return out_sums, in_sums


def _update_xi(out_sums: np.ndarray, tau: np.ndarray, xi0: np.ndarray) -> np.ndarray:
    k, c = tau.shape[1], xi0.shape[2]
    return xi0 + (tau.T @ out_sums).reshape(k, c, k).transpose(0, 2, 1)


def _scores(out_sums: np.ndarray, in_sums: np.ndarray, chi: np.ndarray,
            xi: np.ndarray, subgraph_of: np.ndarray) -> np.ndarray:
    """Log responsibility scores, one row per vertex, before normalization.

    Row i combines the expected log mixing weight of i's subgraph with, for
    every present edge touching i, the expected log type probability under
    the neighbor's current responsibilities: edges i->j read slice
    xi[k, l, :] and edges j->i read slice xi[l, k, :].  ``out_sums`` and
    ``in_sums`` are the neighbour sums of tau over out- and in-edges.
    """
    k, c = xi.shape[1], xi.shape[2]
    elog_alpha = digamma(chi) - digamma(chi.sum(axis=1, keepdims=True))
    elog_pi = digamma(xi) - digamma(xi.sum(axis=2, keepdims=True))
    return (elog_alpha[np.asarray(subgraph_of, dtype=np.int64)]
            + out_sums @ elog_pi.transpose(2, 1, 0).reshape(c * k, k)
            + in_sums @ elog_pi.transpose(2, 0, 1).reshape(c * k, k))


def _normalize_scores(scores: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(scores)):
        raise FloatingPointError("non-finite responsibility scores; "
                                 "hyperparameters are corrupted")
    if scores.shape[0] == 0:
        return np.zeros_like(scores)
    shifted = scores - scores.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


def e_step(net: TypedNetwork, state: VariationalState) -> np.ndarray:
    """One synchronous responsibility sweep.

    Every row of the returned tau is computed from the previous tau (no
    in-sweep feedback), normalized in the log domain, and sums to 1.
    """
    out_sums, in_sums = _neighbour_sums(_type_operator(net), state.tau, net.n_types)
    scores = _scores(out_sums, in_sums, state.chi, state.xi, net.subgraph_of)
    return _normalize_scores(scores)


def elbo(net: TypedNetwork, state: VariationalState,
         priors: PriorHyperparams) -> float:
    """Evidence lower bound of a state whose hyperparameters are fresh.

    Valid when chi, a, b, xi are exactly the update outputs for state.tau
    (the cross-entropy terms cancel in that case); called right after each
    hyperparameter sweep during fitting.  Zero-responsibility entries
    contribute zero entropy.  The prior terms come from the normalizers
    cached on ``priors``, which must match the network and the state's K.
    """
    if state.tau.shape[0] != net.n_vertices or state.chi.shape[0] != net.n_subgraphs:
        raise ValueError("state does not match the network's dimensions")
    _check_priors(priors, (net.n_subgraphs, state.tau.shape[1], net.n_types))
    gamma_term = float((betaln(state.a, state.b) - priors.log_beta0).sum())
    alpha_term = float((log_dirichlet_norm(state.chi, axis=1)
                        - priors.log_norm_chi0).sum())
    pi_term = float((log_dirichlet_norm(state.xi, axis=2)
                     - priors.log_norm_xi0).sum())
    entropy = -float(xlogy(state.tau, state.tau).sum())
    total = gamma_term + alpha_term + pi_term + entropy
    if not np.isfinite(total):
        raise FloatingPointError(f"non-finite bound value {total}")
    return total


def fit_single(net: TypedNetwork, tau0: np.ndarray, priors: PriorHyperparams,
               *, epsilon_converge: float = 1e-6, max_iterations: int = 200
               ) -> tuple[VariationalState, np.ndarray, bool]:
    """Run the update loop from one explicit initialization.

    Each iteration recomputes the hyperparameters from the current tau,
    records the bound, then refreshes tau.  The loop stops when the largest
    absolute hyperparameter change (over chi, a, b and xi jointly, with the
    priors as the round-zero reference) drops below ``epsilon_converge``,
    or after ``max_iterations``.

    The neighbour-sum operator and the presence update ``a``, ``b`` (which
    do not depend on tau) are built once before the loop.  Inside it tau, chi and xi stay plain arrays; the
    bound reads them through an unchecked state, and the state returned is
    built, and checked, once on exit.

    Returns (state, elbo_trace, converged); the state's hyperparameters
    always correspond to its tau.  Priors shaped for another network are
    rejected.
    """
    _check_priors(priors, (net.n_subgraphs, priors.n_clusters, net.n_types))
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    tau = np.asarray(tau0, dtype=np.float64)
    if tau.shape != (net.n_vertices, priors.n_clusters):
        raise ValueError(f"tau0 must be {net.n_vertices} x {priors.n_clusters}, "
                         f"got shape {tau.shape}")
    check_row_stochastic(tau, "tau0")

    op = _type_operator(net)
    sub = net.subgraph_of
    a, b = m_step_gamma(net, priors)

    previous = np.concatenate([priors.chi0.ravel(), priors.a0.ravel(),
                               priors.b0.ravel(), priors.xi0.ravel()])
    trace: list[float] = []
    converged = False
    for _ in range(max_iterations):
        chi = m_step_alpha(sub, tau, priors)
        out_sums, in_sums = _neighbour_sums(op, tau, net.n_types)
        xi = _update_xi(out_sums, tau, priors.xi0)
        state = VariationalState._unchecked(tau, chi, a, b, xi)
        trace.append(elbo(net, state, priors))
        current = np.concatenate([chi.ravel(), a.ravel(), b.ravel(), xi.ravel()])
        if np.max(np.abs(current - previous), initial=0.0) < epsilon_converge:
            converged = True
            break
        previous = current
        tau = _normalize_scores(_scores(out_sums, in_sums, chi, xi, sub))

    state = VariationalState(tau=state.tau, chi=state.chi, a=a, b=b, xi=state.xi)
    return state, np.asarray(trace), converged


def fit(net: TypedNetwork, config: FitConfig) -> FitResult:
    """Fit the model with multiple k-medoid-seeded restarts.

    Each restart r initializes from :func:`~rsm.medoids.kmedoid_init` with
    seed ``config.seed + r`` and runs :func:`fit_single`.  The restart with
    the highest final bound wins (ties to the lowest restart index); the
    same inputs and seed always reproduce the same result.

    The discordance matrix :func:`~rsm.medoids.distance_matrix` is built
    once here and read by every restart's :func:`~rsm.medoids.kmedoid_init`.
    """
    return _fit(net, config, medoids.distance_matrix(net))


def _fit(net: TypedNetwork, config: FitConfig, distances: np.ndarray) -> FitResult:
    """Body of :func:`fit`, given the network's discordance matrix; :func:`rsm.selection.select_k` calls it with one matrix for
    every K."""
    k = config.n_clusters
    priors = config.priors
    if priors is None:
        priors = PriorHyperparams.constant(net.n_subgraphs, k, net.n_types,
                                           config.prior_concentration)
    _check_priors(priors, (net.n_subgraphs, k, net.n_types))

    runs: list[tuple] = []
    errors: list[str] = []
    for r in range(config.n_restarts):
        tau0 = kmedoid_init(distances, k, seed=config.seed + r)
        try:
            state, trace, converged = fit_single(
                net, tau0, priors,
                epsilon_converge=config.epsilon_converge,
                max_iterations=config.max_iterations)
        except FloatingPointError as exc:
            runs.append(None)
            errors.append(f"restart {r}: {exc}")
            continue
        runs.append((state, trace, converged))
    if all(run is None for run in runs):
        raise FloatingPointError("every restart failed: " + "; ".join(errors))

    finals = [run[1][-1] if run is not None else -np.inf for run in runs]
    best = int(np.argmax(finals))
    state, trace, converged = runs[best]
    map_labels = (np.argmax(state.tau, axis=1) if state.tau.size
                  else np.zeros(net.n_vertices, dtype=np.int64))
    summaries = tuple(
        RestartSummary(restart_index=r, final_elbo=float(run[1][-1]),
                       n_iterations=len(run[1]), converged=run[2])
        if run is not None else
        RestartSummary(restart_index=r, final_elbo=float("nan"),
                       n_iterations=0, converged=False)
        for r, run in enumerate(runs))
    return FitResult(state=state, elbo_trace=trace, map_labels=map_labels,
                     n_iterations=len(trace), restart_index=best,
                     converged=converged, restarts=summaries)
