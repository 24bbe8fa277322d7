"""Variational Bayes EM for clustering a typed network with known subgraphs.

The posterior over cluster memberships and model parameters is approximated
by a factorized distribution: independent categorical responsibilities tau
for the memberships, a Dirichlet per mixing row (parameters chi), a Beta per
presence probability (parameters a, b), and a Dirichlet per type
distribution (parameters xi).  Updates alternate a closed-form
hyperparameter sweep (:func:`m_step_gamma`, :func:`m_step_alpha`,
:func:`m_step_pi`) with a synchronous responsibility sweep (:func:`e_step`);
:func:`elbo` scores the state right after a hyperparameter sweep.

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
from scipy.special import betaln, digamma, gammaln, xlogy

from .medoids import kmedoid_init
from .network import TypedNetwork, edge_indicator, validate_network
from .params import (
    FitResult,
    PriorHyperparams,
    RestartSummary,
    VariationalState,
    check_row_stochastic,
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


def _check_valid(net: TypedNetwork) -> None:
    report = validate_network(net)
    if not report.ok:
        raise ValueError("invalid network: " + "; ".join(report.violations))


def _subgraph_onehot(subgraph_of: np.ndarray, n_subgraphs: int) -> np.ndarray:
    return np.eye(n_subgraphs)[np.asarray(subgraph_of, dtype=np.int64)]


def log_dirichlet_norm(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """log C(x) = sum_d log Gamma(x_d) - log Gamma(sum_d x_d) along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    return gammaln(x).sum(axis=axis) - gammaln(x.sum(axis=axis))


def m_step_gamma(net: TypedNetwork, priors: PriorHyperparams
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Posterior Beta parameters of the presence probabilities.

    For each ordered subgraph pair (r, s), ``a`` gains the number of present
    edges from r-vertices to s-vertices and ``b`` the number of absent ones;
    responsibilities play no role.  Hence a + b - (a0 + b0) equals the number
    of ordered vertex pairs in the block.
    """
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
    size.
    """
    r = _subgraph_onehot(subgraph_of, priors.n_subgraphs)
    return priors.chi0 + r.T @ np.asarray(tau, dtype=np.float64)


def m_step_pi(net: TypedNetwork, tau: np.ndarray,
              priors: PriorHyperparams) -> np.ndarray:
    """Posterior Dirichlet parameters of the per-cluster-pair type distributions.

    xi[k, l, c] gains sum over ordered pairs (i, j), i != j, of
    tau[i, k] * tau[j, l] for each edge i->j of type c, so the total added
    mass equals the number of present edges.
    """
    tau = np.asarray(tau, dtype=np.float64)
    masks = [edge_indicator(net, c) for c in range(1, net.n_types + 1)]
    return _update_xi(masks, tau, priors.xi0)


def _update_xi(masks: list[np.ndarray], tau: np.ndarray,
               xi0: np.ndarray) -> np.ndarray:
    xi = np.array(xi0, copy=True)
    for c, m in enumerate(masks):
        xi[:, :, c] += tau.T @ m @ tau
    return xi


def _scores(masks: list[np.ndarray], tau: np.ndarray, chi: np.ndarray,
            xi: np.ndarray, subgraph_of: np.ndarray) -> np.ndarray:
    """Log responsibility scores, one row per vertex, before normalization.

    Row i combines the expected log mixing weight of i's subgraph with, for
    every present edge touching i, the expected log type probability under
    the neighbor's current responsibilities: edges i->j read slice
    xi[k, l, :] and edges j->i read slice xi[l, k, :].
    """
    elog_alpha = digamma(chi) - digamma(chi.sum(axis=1, keepdims=True))
    elog_pi = digamma(xi) - digamma(xi.sum(axis=2, keepdims=True))
    scores = elog_alpha[np.asarray(subgraph_of, dtype=np.int64)].copy()
    for c, m in enumerate(masks):
        e = elog_pi[:, :, c]
        scores += (m @ tau) @ e.T
        scores += (m.T @ tau) @ e
    return scores


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
    masks = [edge_indicator(net, c) for c in range(1, net.n_types + 1)]
    scores = _scores(masks, state.tau, state.chi, state.xi, net.subgraph_of)
    return _normalize_scores(scores)


def elbo(net: TypedNetwork, state: VariationalState,
         priors: PriorHyperparams) -> float:
    """Evidence lower bound of a state whose hyperparameters are fresh.

    Valid when chi, a, b, xi are exactly the update outputs for state.tau
    (the cross-entropy terms cancel in that case); called right after each
    hyperparameter sweep during fitting.  Zero-responsibility entries
    contribute zero entropy.
    """
    if state.tau.shape[0] != net.n_vertices or state.chi.shape[0] != net.n_subgraphs:
        raise ValueError("state does not match the network's dimensions")
    gamma_term = float((betaln(state.a, state.b) - betaln(priors.a0, priors.b0)).sum())
    alpha_term = float((log_dirichlet_norm(state.chi, axis=1)
                        - log_dirichlet_norm(priors.chi0, axis=1)).sum())
    pi_term = float((log_dirichlet_norm(state.xi, axis=2)
                     - log_dirichlet_norm(priors.xi0, axis=2)).sum())
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

    Returns (state, elbo_trace, converged); the state's hyperparameters
    always correspond to its tau.  Networks with validation violations are
    rejected.
    """
    _check_valid(net)
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    tau = np.asarray(tau0, dtype=np.float64)
    if tau.shape != (net.n_vertices, priors.n_clusters):
        raise ValueError(f"tau0 must be {net.n_vertices} x {priors.n_clusters}, "
                         f"got shape {tau.shape}")
    check_row_stochastic(tau, "tau0")

    masks = [edge_indicator(net, c) for c in range(1, net.n_types + 1)]
    sub = net.subgraph_of
    a, b = m_step_gamma(net, priors)

    previous = np.concatenate([priors.chi0.ravel(), priors.a0.ravel(),
                               priors.b0.ravel(), priors.xi0.ravel()])
    trace: list[float] = []
    converged = False
    state = None
    for _ in range(max_iterations):
        chi = m_step_alpha(sub, tau, priors)
        xi = _update_xi(masks, tau, priors.xi0)
        state = VariationalState(tau=tau, chi=chi, a=a, b=b, xi=xi)
        trace.append(elbo(net, state, priors))
        current = np.concatenate([chi.ravel(), a.ravel(), b.ravel(), xi.ravel()])
        if np.max(np.abs(current - previous), initial=0.0) < epsilon_converge:
            converged = True
            break
        previous = current
        tau = _normalize_scores(_scores(masks, tau, chi, xi, sub))

    return state, np.asarray(trace), converged


def fit(net: TypedNetwork, config: FitConfig) -> FitResult:
    """Fit the model with multiple k-medoid-seeded restarts.

    Each restart r initializes from :func:`~rsm.medoids.kmedoid_init` with
    seed ``config.seed + r`` and runs :func:`fit_single`.  The restart with
    the highest final bound wins (ties to the lowest restart index); the
    same inputs and seed always reproduce the same result.  Networks with
    validation violations are rejected.
    """
    _check_valid(net)

    k = config.n_clusters
    priors = config.priors
    if priors is None:
        priors = PriorHyperparams.constant(net.n_subgraphs, k, net.n_types,
                                           config.prior_concentration)
    if (priors.n_subgraphs, priors.n_clusters, priors.n_types) != (
            net.n_subgraphs, k, net.n_types):
        raise ValueError(
            f"priors shaped for (S, K, C) = ({priors.n_subgraphs}, "
            f"{priors.n_clusters}, {priors.n_types}), expected "
            f"({net.n_subgraphs}, {k}, {net.n_types})")

    runs: list[tuple] = []
    errors: list[str] = []
    for r in range(config.n_restarts):
        tau0 = kmedoid_init(net, k, seed=config.seed + r)
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
