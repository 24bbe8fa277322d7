"""Model parameters, conjugate prior hyperparameters, and fit outputs.

Shapes use S = number of subgraphs, K = number of clusters, C = number of
edge types, N = number of vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import betaln, gammaln

from .network import _readonly

# Shared tolerance for "rows sum to one" checks on probability tables.
ROW_SUM_TOL = 1e-10


def check_row_stochastic(arr: np.ndarray, name: str, tol: float = ROW_SUM_TOL) -> None:
    """Raise ValueError unless ``arr`` is nonnegative with unit sums on the last axis."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.size == 0:
        return
    if np.any(arr < 0):
        raise ValueError(f"{name} has negative entries")
    sums = arr.sum(axis=-1)
    if not np.all(np.abs(sums - 1.0) <= tol):
        worst = float(np.max(np.abs(sums - 1.0)))
        raise ValueError(f"{name} rows must sum to 1 (worst deviation {worst:.3e})")


def log_dirichlet_norm(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """log C(x) = sum_d log Gamma(x_d) - log Gamma(sum_d x_d) along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    return gammaln(x).sum(axis=axis) - gammaln(x.sum(axis=axis))


@dataclass(frozen=True)
class RsmParams:
    """Generative parameters of the model.

    alpha:
        S x K mixing proportions; row s is the cluster distribution of
        vertices in subgraph s.
    gamma:
        S x S edge-presence probabilities between subgraph pairs.
    pi:
        K x K x C type distributions; ``pi[k, l]`` is the distribution of the
        type of an edge from a cluster-k vertex to a cluster-l vertex.
    """

    alpha: np.ndarray
    gamma: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=np.float64)
        gamma = np.asarray(self.gamma, dtype=np.float64)
        pi = np.asarray(self.pi, dtype=np.float64)
        if alpha.ndim != 2:
            raise ValueError(f"alpha must be S x K, got shape {alpha.shape}")
        s = alpha.shape[0]
        if gamma.shape != (s, s):
            raise ValueError(f"gamma must be {s} x {s}, got shape {gamma.shape}")
        k = alpha.shape[1]
        if pi.ndim != 3 or pi.shape[0] != k or pi.shape[1] != k:
            raise ValueError(f"pi must be {k} x {k} x C, got shape {pi.shape}")
        check_row_stochastic(alpha, "alpha")
        check_row_stochastic(pi, "pi")
        if np.any(gamma < 0) or np.any(gamma > 1):
            raise ValueError("gamma entries must lie in [0, 1]")
        object.__setattr__(self, "alpha", _readonly(alpha))
        object.__setattr__(self, "gamma", _readonly(gamma))
        object.__setattr__(self, "pi", _readonly(pi))

    @property
    def n_subgraphs(self) -> int:
        return self.alpha.shape[0]

    @property
    def n_clusters(self) -> int:
        return self.alpha.shape[1]

    @property
    def n_types(self) -> int:
        return self.pi.shape[2]


@dataclass(frozen=True)
class PriorHyperparams:
    """Conjugate prior hyperparameters.

    chi0:
        S x K Dirichlet parameters for the mixing rows alpha_s.
    a0, b0:
        S x S Beta parameters for the presence probabilities gamma_rs.
    xi0:
        K x K x C Dirichlet parameters for the type distributions pi_kl.

    All entries must be strictly positive.  The default used throughout is
    the noninformative value 1/2 everywhere (:meth:`jeffreys`); the flat
    alternative is 1 everywhere (:meth:`uniform`).

    The prior-only normalizers of the bound (:attr:`log_beta0`,
    :attr:`log_norm_chi0`, :attr:`log_norm_xi0`) are computed on first use
    and kept, so :func:`rsm.inference.elbo` does not recompute them on every
    iteration.
    """

    chi0: np.ndarray
    a0: np.ndarray
    b0: np.ndarray
    xi0: np.ndarray

    def __post_init__(self):
        chi0 = np.asarray(self.chi0, dtype=np.float64)
        a0 = np.asarray(self.a0, dtype=np.float64)
        b0 = np.asarray(self.b0, dtype=np.float64)
        xi0 = np.asarray(self.xi0, dtype=np.float64)
        if chi0.ndim != 2:
            raise ValueError(f"chi0 must be S x K, got shape {chi0.shape}")
        s, k = chi0.shape
        if a0.shape != (s, s) or b0.shape != (s, s):
            raise ValueError(f"a0 and b0 must be {s} x {s}, got {a0.shape} and {b0.shape}")
        if xi0.ndim != 3 or xi0.shape[:2] != (k, k):
            raise ValueError(f"xi0 must be {k} x {k} x C, got shape {xi0.shape}")
        for name, arr in (("chi0", chi0), ("a0", a0), ("b0", b0), ("xi0", xi0)):
            if arr.size and not np.all(arr > 0):
                raise ValueError(f"{name} entries must be strictly positive")
        object.__setattr__(self, "chi0", _readonly(chi0))
        object.__setattr__(self, "a0", _readonly(a0))
        object.__setattr__(self, "b0", _readonly(b0))
        object.__setattr__(self, "xi0", _readonly(xi0))

    @classmethod
    def constant(cls, n_subgraphs: int, n_clusters: int, n_types: int,
                 value: float) -> "PriorHyperparams":
        """Every hyperparameter set to the same positive ``value``."""
        if value <= 0:
            raise ValueError(f"prior value must be > 0, got {value}")
        s, k, c = n_subgraphs, n_clusters, n_types
        return cls(
            chi0=np.full((s, k), value),
            a0=np.full((s, s), value),
            b0=np.full((s, s), value),
            xi0=np.full((k, k, c), value),
        )

    @classmethod
    def jeffreys(cls, n_subgraphs: int, n_clusters: int, n_types: int) -> "PriorHyperparams":
        """Noninformative prior: 1/2 everywhere (the default)."""
        return cls.constant(n_subgraphs, n_clusters, n_types, 0.5)

    @classmethod
    def uniform(cls, n_subgraphs: int, n_clusters: int, n_types: int) -> "PriorHyperparams":
        """Flat prior: 1 everywhere."""
        return cls.constant(n_subgraphs, n_clusters, n_types, 1.0)

    @property
    def n_subgraphs(self) -> int:
        return self.chi0.shape[0]

    @property
    def n_clusters(self) -> int:
        return self.chi0.shape[1]

    @property
    def n_types(self) -> int:
        return self.xi0.shape[2]

    @cached_property
    def log_beta0(self) -> np.ndarray:
        """S x S array log B(a0, b0)."""
        return _readonly(betaln(self.a0, self.b0))

    @cached_property
    def log_norm_chi0(self) -> np.ndarray:
        """Length-S array of log C(chi0_s)."""
        return _readonly(log_dirichlet_norm(self.chi0, axis=1))

    @cached_property
    def log_norm_xi0(self) -> np.ndarray:
        """K x K array of log C(xi0_kl)."""
        return _readonly(log_dirichlet_norm(self.xi0, axis=2))


@dataclass(frozen=True)
class VariationalState:
    """Posterior approximation after an update sweep.

    tau:
        N x K cluster responsibilities; each row is a probability vector.
    chi:
        S x K posterior Dirichlet parameters for the mixing rows.
    a, b:
        S x S posterior Beta parameters for edge presence.
    xi:
        K x K x C posterior Dirichlet parameters for type distributions.
    """

    tau: np.ndarray
    chi: np.ndarray
    a: np.ndarray
    b: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        tau = np.asarray(self.tau, dtype=np.float64)
        chi = np.asarray(self.chi, dtype=np.float64)
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        xi = np.asarray(self.xi, dtype=np.float64)
        if tau.ndim != 2:
            raise ValueError(f"tau must be N x K, got shape {tau.shape}")
        k = tau.shape[1]
        if chi.ndim != 2 or chi.shape[1] != k:
            raise ValueError(f"chi must be S x {k}, got shape {chi.shape}")
        s = chi.shape[0]
        if a.shape != (s, s) or b.shape != (s, s):
            raise ValueError(f"a and b must be {s} x {s}")
        if xi.ndim != 3 or xi.shape[:2] != (k, k):
            raise ValueError(f"xi must be {k} x {k} x C, got shape {xi.shape}")
        check_row_stochastic(tau, "tau")
        for name, arr in (("chi", chi), ("a", a), ("b", b), ("xi", xi)):
            if arr.size and not np.all(arr > 0):
                raise ValueError(f"{name} entries must be strictly positive")
        object.__setattr__(self, "tau", _readonly(tau))
        object.__setattr__(self, "chi", _readonly(chi))
        object.__setattr__(self, "a", _readonly(a))
        object.__setattr__(self, "b", _readonly(b))
        object.__setattr__(self, "xi", _readonly(xi))

    @classmethod
    def _unchecked(cls, tau, chi, a, b, xi) -> "VariationalState":
        """A state over the given float64 arrays, neither copied nor checked.

        For the update loop, which builds one per iteration from arrays it
        has just computed; :func:`rsm.inference.fit_single` returns a state
        built by the checking constructor.
        """
        state = object.__new__(cls)
        for name, value in (("tau", tau), ("chi", chi), ("a", a), ("b", b), ("xi", xi)):
            object.__setattr__(state, name, value)
        return state

    @property
    def n_vertices(self) -> int:
        return self.tau.shape[0]

    @property
    def n_clusters(self) -> int:
        return self.tau.shape[1]


@dataclass(frozen=True)
class RestartSummary:
    """One restart of :func:`rsm.inference.fit`: its bound per iteration
    (empty if it failed numerically) and whether it met the stopping
    tolerance before the iteration cap."""

    elbo_trace: np.ndarray
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "elbo_trace", _readonly(self.elbo_trace, np.float64))

    @property
    def final_elbo(self) -> float:
        """The last bound value, or NaN for a failed restart."""
        return float(self.elbo_trace[-1]) if len(self.elbo_trace) else float("nan")

    @property
    def n_iterations(self) -> int:
        return len(self.elbo_trace)


@dataclass(frozen=True)
class FitResult:
    """Outcome of a (multi-restart) fit.

    state:
        The variational state of the winning restart, self-consistent with
        the last bound value (hyperparameters are the update outputs for
        ``state.tau``).
    restart_index:
        Which restart won (0-indexed); ties in final bound go to the lowest
        index.
    restarts:
        One :class:`RestartSummary` per restart, in restart order.

    ``elbo_trace``, ``n_iterations``, ``converged`` and ``final_elbo`` read
    the winning restart's record; ``map_labels`` is the length-N hard
    assignment ``argmax_k tau[i, k]``, ties broken toward the smallest
    cluster index (0-indexed in memory).
    """

    state: VariationalState
    restart_index: int
    restarts: tuple[RestartSummary, ...]

    @property
    def elbo_trace(self) -> np.ndarray:
        return self.restarts[self.restart_index].elbo_trace

    @property
    def n_iterations(self) -> int:
        return self.restarts[self.restart_index].n_iterations

    @property
    def converged(self) -> bool:
        return self.restarts[self.restart_index].converged

    @property
    def final_elbo(self) -> float:
        return self.restarts[self.restart_index].final_elbo

    @cached_property
    def map_labels(self) -> np.ndarray:
        return _readonly(np.argmax(self.state.tau, axis=1), np.int64)
