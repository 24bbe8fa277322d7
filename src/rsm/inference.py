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
one sparse operator, the network's
:attr:`~rsm.network.TypedNetwork._type_operator`, which the network builds
from its edge list once and keeps, so an iteration costs O(E K + N K^2 C)
and no all-pairs array is formed.  The operator's rows are ordered (half,
vertex, type), so for one tau its product already is the N x (C K) out-
and in-sums.  The sweep normalizes each vertex's scores with a max taken
column by column, and below 8 clusters with a sum taken so too, in the
order numpy's reduction over the last axis uses there; from 8 clusters up
the sum is that reduction.  Each row gets the bits the reduction would
give, at a fraction of its cost for small K.  The k-medoid discordance
(:func:`rsm.medoids.distance_matrix`) is kept as two sparse factors, one
of them that same operator with its rows regrouped by vertex, and becomes
an all-pairs array only on a network dense enough for the array to be its
cheaper form.

What cannot change is computed outside the loops.  :func:`fit` builds the
k-medoid discordance once (:func:`rsm.selection.select_k` once for
every K), which builds the network's operator, draws every restart's start,
and hands the stack to one :func:`fit_single` call.  That call builds the
subgraph one-hot and the presence update (``a``, ``b``) once, and runs the
restarts in lockstep: one sparse product gives every restart's neighbour
sums, the ``xi`` update and the scores are batched matrix products, and
each restart keeps its own bound and stop test.  Each sum adds the same
terms in the same order whatever the batch, so a restart's trace is bit
for bit the one it gives alone.  Inside the loop tau, chi, xi, the
neighbour sums and the scores stay plain arrays, one row per running
restart, held together so that one filter drops the restarts that stop;
a restart's checked :class:`~rsm.params.VariationalState` and its
:class:`~rsm.params.RestartSummary` are built once, when it leaves.  A
loop whose arrays would not fit in physical memory is refused before it
starts, and :func:`fit` and :func:`rsm.selection.select_k` refuse it
before they build the discordance or draw a start.  The prior-only
normalizers of the bound are cached on the
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

import math
from dataclasses import dataclass, field

import numpy as np
import scipy  # scipy.special and scipy.sparse load on first use, not at `import rsm`

from . import medoids
from .medoids import kmedoid_init
from .network import (
    TypedNetwork,
    _count,
    _csr_bytes,
    _int_vector,
    _refuse_outside,
    _refuse_past_memory,
)
from .network import validate_network  # noqa: F401 # bench/tracing.py wraps it here
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

    priors defaults to the noninformative 1/2 everywhere
    (:meth:`~rsm.params.PriorHyperparams.jeffreys`), built to match the
    network and ``n_clusters``; pass an explicit
    :class:`~rsm.params.PriorHyperparams` to override.  Restart r
    initializes from seed ``seed + r``, in :func:`fit` and for every K of
    :func:`rsm.selection.select_k` alike.
    """

    n_clusters: int
    priors: PriorHyperparams | None = None
    n_restarts: int = 5
    max_iterations: int = 200
    epsilon_converge: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        for name in ("n_clusters", "n_restarts", "max_iterations"):
            object.__setattr__(self, name, _count(getattr(self, name), name))
        object.__setattr__(self, "seed", _count(self.seed, "seed", 0))
        _check_epsilon(self.epsilon_converge)


def _check_epsilon(epsilon_converge: float) -> None:
    if not epsilon_converge > 0:
        raise ValueError(f"epsilon_converge must be > 0, got {epsilon_converge}")


def _check_priors(priors: PriorHyperparams, expected: tuple[int, int, int]) -> None:
    """Reject priors whose (S, K, C) is not ``expected``: one tuple compare."""
    shape = priors.chi0.shape + priors.xi0.shape[2:]
    if shape != expected:
        raise ValueError(f"priors shaped for (S, K, C) = {shape}, expected {expected}")


def _check_state(net: TypedNetwork, state: VariationalState) -> None:
    """Reject a state whose (N, S, C), read from its tau rows, chi rows and
    xi types, is not the network's.  The arrays may carry a leading restart
    axis."""
    shape = (state.tau.shape[-2], state.chi.shape[-2], state.xi.shape[-1])
    expected = (net.n_vertices, net.n_subgraphs, net.n_types)
    if shape != expected:
        raise ValueError(f"state dimensions (N, S, C) = {shape} do not match "
                         f"the network's {expected}")


def _check_tau(tau, n_rows: int, *, stack: bool = False) -> np.ndarray:
    """tau as float64, refused unless it is a matrix with ``n_rows`` rows
    or, where ``stack`` allows it, an R x ``n_rows`` x K stack of them."""
    tau = np.asarray(tau, dtype=np.float64)
    if tau.ndim not in ((2, 3) if stack else (2,)) or tau.shape[-2] != n_rows:
        shapes = f"{n_rows} x K or R x {n_rows} x K" if stack else f"{n_rows} x K"
        raise ValueError(f"tau must be {shapes}, got shape {tau.shape}")
    return tau


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
    size.  ``subgraph_of`` holds the N subgraph labels, or their N x S
    one-hot membership matrix, which :func:`fit_single` builds once so that
    its iterations neither re-check the labels nor rebuild it.  tau may
    carry a leading restart axis (R x N x K); chi then does too.

    A tau of another shape, or with another row count than the labels, is
    rejected, and so are labels that are neither a vector of integers nor a
    matrix.  So are a subgraph label outside the priors' ``0..S - 1``, a
    membership matrix without S columns, and a tau with another K than the
    priors; each message names the priors' (S, K, C).
    """
    sub = np.asarray(subgraph_of)
    if sub.ndim != 2:
        sub = _int_vector(sub, "subgraph_of")
    tau = _check_tau(tau, len(sub), stack=True)
    shape = (priors.n_subgraphs, priors.n_clusters, priors.n_types)
    _check_priors(priors, (shape[0], tau.shape[-1], shape[2]))
    if sub.ndim == 1:
        _refuse_outside(sub, shape[0], "subgraph label",
                        f" of priors shaped for (S, K, C) = {shape}")
        sub = np.eye(shape[0])[sub]
    elif sub.shape[1:] != shape[:1]:
        raise ValueError(f"subgraph membership must be N x {shape[0]} for priors "
                         f"shaped for (S, K, C) = {shape}, got shape {sub.shape}")
    return priors.chi0 + sub.T @ tau


def m_step_pi(net: TypedNetwork, tau: np.ndarray,
              priors: PriorHyperparams) -> np.ndarray:
    """Posterior Dirichlet parameters of the per-cluster-pair type distributions.

    xi[k, l, c] gains sum over ordered pairs (i, j), i != j, of
    tau[i, k] * tau[j, l] for each edge i->j of type c, so the total added
    mass equals the number of present edges.  A tau that is not an N x K
    matrix, and priors shaped for another network or K, are rejected.
    """
    tau = _check_tau(tau, net.n_vertices)
    _check_priors(priors, (net.n_subgraphs, tau.shape[-1], net.n_types))
    out_sums, _ = _neighbour_sums(net, tau)
    return _update_xi(out_sums, tau, priors.xi0)


def _neighbour_sums(net: TypedNetwork, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Out- and in-neighbour sums, each N x (C K): entry (i, c K + l) of the
    first is the sum of tau[j, l] over the j with an edge i -> j of type c,
    and of the second over the j with an edge j -> i of type c, both read
    from the network's typed operator.

    For one tau the product is the two halves as they stand, so they are
    returned without a copy.  A stack of R taus takes one product over
    N x (R K) columns, and one transposed copy moves its restart axis first;
    a CSR product adds each column's terms in the same order whatever the
    column count."""
    *batch, n, k = tau.shape
    r, c = math.prod(batch), net.n_types
    wide = tau.reshape(r, n, k).transpose(1, 0, 2).reshape(n, r * k)
    sums = (net._type_operator @ wide).reshape(2, n, c, r, k).transpose(0, 3, 1, 2, 4)
    # with R = 1 the transposition moves only a unit axis: no copy is made
    out_sums, in_sums = np.ascontiguousarray(sums).reshape(2, *batch, n, c * k)
    return out_sums, in_sums


def _update_xi(out_sums: np.ndarray, tau: np.ndarray, xi0: np.ndarray) -> np.ndarray:
    k, c = tau.shape[-1], xi0.shape[-1]
    products = tau.swapaxes(-1, -2) @ out_sums
    return xi0 + products.reshape(*products.shape[:-1], c, k).swapaxes(-1, -2)


def _scores(out_sums: np.ndarray, in_sums: np.ndarray, chi: np.ndarray,
            xi: np.ndarray, subgraph_of: np.ndarray) -> np.ndarray:
    """Log responsibility scores, one row per vertex, before normalization.

    Row i combines the expected log mixing weight of i's subgraph with, for
    every present edge touching i, the expected log type probability under
    the neighbor's current responsibilities: edges i->j read slice
    xi[k, l, :] and edges j->i read slice xi[l, k, :].  ``out_sums`` and
    ``in_sums`` are the neighbour sums of tau over out- and in-edges.  Every
    argument but the labels may carry a leading restart axis.
    """
    k, c = xi.shape[-2], xi.shape[-1]
    batch = xi.shape[:-3]
    elog_alpha = (scipy.special.digamma(chi)
                  - scipy.special.digamma(chi.sum(axis=-1, keepdims=True)))
    elog_pi = (scipy.special.digamma(xi)
               - scipy.special.digamma(xi.sum(axis=-1, keepdims=True)))
    return (np.take(elog_alpha, np.asarray(subgraph_of, dtype=np.int64), axis=-2)
            + out_sums @ elog_pi.swapaxes(-1, -3).reshape(*batch, c * k, k)
            + in_sums @ elog_pi.swapaxes(-1, -2).swapaxes(-2, -3).reshape(*batch, c * k, k))


_NONFINITE_SCORES = "non-finite responsibility scores; hyperparameters are corrupted"


def _normalize_scores(scores: np.ndarray) -> np.ndarray:
    """Rows of finite log scores turned into probability vectors.

    Each row's max is taken column by column, which at small K is far
    cheaper than a reduction over the last axis and gives the same bits.
    Below 8 columns the sum is one running sum, numpy's own order there;
    from 8 up it is numpy's reduction over the last axis."""
    k = scores.shape[-1]
    top = scores[..., 0].copy()
    for j in range(1, k):
        np.maximum(top, scores[..., j], out=top)
    ex = np.exp(scores - top[..., None])
    if k >= 8:
        return ex / ex.sum(axis=-1, keepdims=True)
    total = ex[..., 0].copy()
    for j in range(1, k):
        total += ex[..., j]
    return ex / total[..., None]


def e_step(net: TypedNetwork, state: VariationalState) -> np.ndarray:
    """One synchronous responsibility sweep.

    Every row of the returned tau is computed from the previous tau (no
    in-sweep feedback), normalized in the log domain, and sums to 1.  A
    state shaped for another network is rejected.
    """
    _check_state(net, state)
    out_sums, in_sums = _neighbour_sums(net, state.tau)
    scores = _scores(out_sums, in_sums, state.chi, state.xi, net.subgraph_of)
    if not np.all(np.isfinite(scores)):
        raise FloatingPointError(_NONFINITE_SCORES)
    return _normalize_scores(scores)


def elbo(net: TypedNetwork, state: VariationalState, priors: PriorHyperparams):
    """Evidence lower bound of a state whose hyperparameters are fresh.

    Valid when chi, a, b, xi are exactly the update outputs for state.tau
    (the cross-entropy terms cancel in that case); called right after each
    hyperparameter sweep during fitting.  Zero-responsibility entries
    contribute zero entropy.  The prior terms come from the normalizers
    cached on ``priors``, which must match the network and the state's K.
    A state shaped for another network is rejected.

    The presence term, the sum of log B(a, b) / B(a0, b0), is shared by
    every restart of a stack and computed once per call.

    A state whose tau, chi and xi carry a leading restart axis (the
    unchecked states of :func:`fit_single`'s loop) gets one bound per
    restart, as an array in which a non-finite value is left for the caller
    to refuse; a single state's bound is a float, and a non-finite one
    raises FloatingPointError.
    """
    _check_state(net, state)
    _check_priors(priors, (net.n_subgraphs, state.tau.shape[-1], net.n_types))
    presence_term = float((scipy.special.betaln(state.a, state.b) - priors.log_beta0).sum())
    alpha_term = (log_dirichlet_norm(state.chi, axis=-1)
                  - priors.log_norm_chi0).sum(axis=-1)
    pi_term = (log_dirichlet_norm(state.xi, axis=-1)
               - priors.log_norm_xi0).sum(axis=(-2, -1))
    entropy = -scipy.special.xlogy(state.tau, state.tau).sum(axis=(-2, -1))
    total = presence_term + alpha_term + pi_term + entropy
    if state.tau.ndim > 2:
        return total
    total = float(total)
    if not np.isfinite(total):
        raise FloatingPointError(f"non-finite bound value {total}")
    return total


def fit_single(net: TypedNetwork, tau0: np.ndarray, priors: PriorHyperparams,
               *, epsilon_converge: float = FitConfig.epsilon_converge,
               max_iterations: int = FitConfig.max_iterations):
    """Run the update loop from one explicit initialization, or from a
    stack of them in lockstep.

    Each iteration recomputes the hyperparameters from the current tau,
    records the bound, then refreshes tau.  The loop stops when the largest
    absolute hyperparameter change (over chi, a, b and xi jointly, with the
    priors as the round-zero reference) drops below ``epsilon_converge``,
    or after ``max_iterations``.

    An N x K ``tau0`` is one restart and returns (state, elbo_trace,
    converged); the state's hyperparameters always correspond to its tau,
    and a non-finite bound or score raises FloatingPointError.

    An R x N x K ``tau0`` holds R restarts, run as one loop: every
    iteration makes one :func:`m_step_alpha` and one :func:`elbo` call for
    the restarts still running, and each restart stops at the iteration
    where it would stop alone, with the same trace, bit for bit.  Returns
    (states, records), one state and one :class:`~rsm.params.RestartSummary`
    per restart.  A restart that fails numerically fails alone: its state
    is None, and its record has an empty trace and the stop reason
    ``"failed: <message>"``, with the message it would have raised.

    The subgraph one-hot and the presence update ``a``, ``b`` (neither
    depends on tau) are built once before the loop, and the neighbour sums
    read the network's :attr:`~rsm.network.TypedNetwork._type_operator`.
    Priors shaped for another network are rejected, and so is a loop whose
    arrays (:func:`_loop_bytes`) would not fit in physical memory, before
    any of them, or the operator, is allocated.
    """
    _check_priors(priors, (net.n_subgraphs, priors.n_clusters, net.n_types))
    max_iterations = _count(max_iterations, "max_iterations")
    _check_epsilon(epsilon_converge)
    taus = np.asarray(tau0, dtype=np.float64)
    n, k = net.n_vertices, priors.n_clusters
    if taus.ndim not in (2, 3) or taus.shape[-2:] != (n, k):
        raise ValueError(f"tau0 must be {n} x {k} or R x {n} x {k}, "
                         f"got shape {taus.shape}")
    _refuse_past_loop(net, len(taus) if taus.ndim == 3 else 1, k)
    check_row_stochastic(taus, "tau0")
    if taus.ndim == 3:
        return _lockstep(net, taus, priors, epsilon_converge, max_iterations)
    (state,), (record,) = _lockstep(net, taus[None], priors, epsilon_converge, max_iterations)
    if state is None:
        raise FloatingPointError(record.stop_reason.removeprefix("failed: "))
    return state, record.elbo_trace, record.converged


def _refuse_past_loop(net: TypedNetwork, r: int, k: int) -> None:
    """Refuse the update loop of R restarts at K on ``net`` when its arrays
    (:func:`_loop_bytes`) would not fit in physical memory."""
    n = net.n_vertices
    _refuse_past_memory(_loop_bytes(r, n, k, net.n_types, len(net.src)),
                        f"the update loop of R={r} restarts on N={n} vertices at K={k}")


def _loop_bytes(r: int, n: int, k: int, c: int, n_edges: int) -> int:
    """Bytes of the loop's live arrays at their peak, for R restarts on N
    vertices, K clusters, C types and E edges: in float64, the taus, the
    scores, their exponentials and the new taus (R N K each), the out- and
    in-neighbour sums (2 R N C K), and their transposed copy when R > 1, and
    about five R K K C stacks of xi (xi, the previous xi, its digamma, the
    change and gammaln's temporaries); and the network's typed operator as
    CSR, counted whether or not it is built yet."""
    sums = 2 * r * n * c * k * (2 if r > 1 else 1)
    return (8 * (4 * r * n * k + sums + 5 * r * k * k * c)
            + _csr_bytes(2 * c * n, n, 2 * n_edges))


def _largest_change(current: np.ndarray, previous: np.ndarray) -> np.ndarray:
    """Per restart, the largest absolute entry change between two stacks."""
    return np.abs(current - previous).max(axis=tuple(range(1, current.ndim)), initial=0.0)


class _Batch:
    """The arrays of the restarts still running in :func:`_lockstep`, one
    row per restart, and ``restarts``, each row's index in the stack.  Every
    array joins the one filter, :meth:`keep`, so the rows stay aligned."""

    def __init__(self, taus: np.ndarray):
        self.restarts = np.arange(len(taus))
        self.taus = taus
        self.chi = self.xi = self.out_sums = self.in_sums = self.scores = None

    def keep(self, rows: np.ndarray) -> None:
        """Keep only the rows flagged in the boolean mask ``rows``."""
        for name, value in vars(self).items():
            if value is not None:
                setattr(self, name, value[rows])


@dataclass
class _Record:
    """A running restart's record fields, frozen into a
    :class:`~rsm.params.RestartSummary` when it leaves the loop."""

    elbo_trace: list[float] = field(default_factory=list)

    def freeze(self, stop_reason: str) -> RestartSummary:
        failed = stop_reason.startswith("failed: ")
        return RestartSummary([] if failed else self.elbo_trace, stop_reason)


def _lockstep(net: TypedNetwork, taus: np.ndarray, priors: PriorHyperparams,
              epsilon_converge: float, max_iterations: int):
    """:func:`fit_single`'s loop over a checked R x N x K stack of starts."""
    sub = net.subgraph_of
    membership = np.eye(net.n_subgraphs)[sub]
    a, b = m_step_gamma(net, priors)

    batch = _Batch(taus)
    collected = [_Record() for _ in taus]
    states: list = [None] * len(taus)
    records: list = [None] * len(taus)
    # a and b are fixed, so they change only against the priors
    ab_change = max(np.max(np.abs(a - priors.a0), initial=0.0),
                    np.max(np.abs(b - priors.b0), initial=0.0))
    previous_chi, previous_xi = priors.chi0, priors.xi0

    def leave(rows, reason):
        """Freeze the records of the restarts flagged in ``rows``, stopped
        for ``reason``, or for ``reason(j)`` at row j, and keep the state
        of each that did not fail; the caller then drops their rows."""
        for j in rows.nonzero()[0]:
            r = batch.restarts[j]
            why = reason if isinstance(reason, str) else reason(j)
            records[r] = collected[r].freeze(why)
            if not why.startswith("failed: "):
                states[r] = VariationalState(tau=batch.taus[j], chi=batch.chi[j], a=a, b=b,
                                             xi=batch.xi[j])

    for iteration in range(max_iterations):
        if not len(batch.restarts):
            break
        batch.chi = m_step_alpha(membership, batch.taus, priors)
        batch.out_sums, batch.in_sums = _neighbour_sums(net, batch.taus)
        batch.xi = _update_xi(batch.out_sums, batch.taus, priors.xi0)
        bounds = elbo(net, VariationalState._unchecked(batch.taus, batch.chi, a, b, batch.xi),
                      priors)
        change = np.maximum(np.maximum(_largest_change(batch.chi, previous_chi),
                                       _largest_change(batch.xi, previous_xi)), ab_change)
        ab_change = 0.0
        for r, bound in zip(batch.restarts, bounds):
            collected[r].elbo_trace.append(float(bound))
        finite = np.isfinite(bounds)
        done = finite & (change < epsilon_converge)
        if not finite.all() or done.any():
            leave(~finite, lambda j: f"failed: non-finite bound value {float(bounds[j])}")
            leave(done, "converged")
            batch.keep(finite & ~done)

        batch.scores = _scores(batch.out_sums, batch.in_sums, batch.chi, batch.xi, sub)
        finite = np.isfinite(batch.scores).all(axis=(1, 2))
        if not finite.all():
            leave(~finite, "failed: " + _NONFINITE_SCORES)
            batch.keep(finite)
        if iteration == max_iterations - 1:
            leave(np.ones(len(batch.restarts), dtype=bool), "max_iterations")
            break
        batch.taus = _normalize_scores(batch.scores)
        previous_chi, previous_xi = batch.chi, batch.xi

    return tuple(states), tuple(records)


def fit(net: TypedNetwork, config: FitConfig) -> FitResult:
    """Fit the model with multiple k-medoid-seeded restarts.

    Each restart r initializes from :func:`~rsm.medoids.kmedoid_init` with
    seed ``config.seed + r``; one :func:`fit_single` call runs every
    restart in lockstep and returns the records the result keeps.  The
    restart with the highest final bound wins (ties to the lowest restart
    index); the same inputs and seed always reproduce the same result.
    Only when every restart fails is FloatingPointError raised.

    A fit whose update loop would not fit in physical memory is refused
    first, before anything is built or drawn.  The discordance,
    :func:`~rsm.medoids.distance_matrix` in whichever form it takes, is then
    built once here and read by every restart's
    :func:`~rsm.medoids.kmedoid_init`.
    """
    _refuse_past_loop(net, config.n_restarts, config.n_clusters)
    return _fit(net, config, medoids.distance_matrix(net))


def _fit(net: TypedNetwork, config: FitConfig, distances) -> FitResult:
    """Body of :func:`fit`, given the network's discordance as
    :func:`~rsm.medoids.distance_matrix` returns it;
    :func:`rsm.selection.select_k` calls it, with one discordance, for
    every K."""
    k = config.n_clusters
    priors = config.priors or PriorHyperparams.jeffreys(net.n_subgraphs, k, net.n_types)
    _check_priors(priors, (net.n_subgraphs, k, net.n_types))

    starts = np.stack([kmedoid_init(distances, k, seed=config.seed + r)
                       for r in range(config.n_restarts)])
    states, records = fit_single(net, starts, priors, epsilon_converge=config.epsilon_converge,
                                 max_iterations=config.max_iterations)
    if all(state is None for state in states):
        raise FloatingPointError("every restart failed: " + "; ".join(
            f"restart {r}: {record.stop_reason.removeprefix('failed: ')}"
            for r, record in enumerate(records)))
    best = int(np.argmax([-np.inf if state is None else record.final_elbo
                          for state, record in zip(states, records)]))
    return FitResult(state=states[best], restart_index=best, restarts=records)
