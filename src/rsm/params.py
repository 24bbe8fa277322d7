"""Model parameters, conjugate prior hyperparameters, and fit outputs.

Shapes use S = number of subgraphs, K = number of clusters, C = number of
edge types, N = number of vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy  # scipy.special loads on first use, not at `import rsm`

from .network import _count, _readonly

# Shared tolerance for "rows sum to one" checks on probability tables.
ROW_SUM_TOL = 1e-10


def check_row_stochastic(arr: np.ndarray, name: str) -> None:
    """Raise ValueError unless ``arr`` is nonnegative with unit sums on the last axis."""
    arr = np.asarray(arr, dtype=np.float64)
    if arr.size == 0:
        return
    if np.any(arr < 0):
        raise ValueError(f"{name} has negative entries")
    sums = arr.sum(axis=-1)
    if not np.all(np.abs(sums - 1.0) <= ROW_SUM_TOL):
        worst = float(np.max(np.abs(sums - 1.0)))
        raise ValueError(f"{name} rows must sum to 1 (worst deviation {worst:.3e})")


def log_dirichlet_norm(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """log C(x) = sum_d log Gamma(x_d) - log Gamma(sum_d x_d) along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    return scipy.special.gammaln(x).sum(axis=axis) - scipy.special.gammaln(x.sum(axis=axis))


def _set_tables(record, sk: str, ss: tuple[str, ...], kkc: str,
                k: int | None = None) -> None:
    """Store ``record``'s S x K table ``sk``, its S x S tables ``ss`` and its
    K x K x C table ``kkc`` as read-only float64 copies.

    S and K are read from the S x K table, which must have ``k`` columns
    when ``k`` is given; a table of another shape is refused by name.
    """
    tables = {name: np.asarray(getattr(record, name), dtype=np.float64)
              for name in (sk, *ss, kkc)}
    first = tables[sk]
    if first.ndim != 2 or (k is not None and first.shape[1] != k):
        raise ValueError(f"{sk} must be S x {'K' if k is None else k}, "
                         f"got shape {first.shape}")
    s, k = first.shape
    square = [tables[name] for name in ss]
    if any(t.shape != (s, s) for t in square):
        got = " and ".join(str(t.shape) for t in square)
        raise ValueError(f"{' and '.join(ss)} must be {s} x {s}, got "
                         f"{'shape ' if len(ss) == 1 else ''}{got}")
    last = tables[kkc]
    if last.ndim != 3 or last.shape[:2] != (k, k):
        raise ValueError(f"{kkc} must be {k} x {k} x C, got shape {last.shape}")
    for name, value in tables.items():
        object.__setattr__(record, name, _readonly(value))


def _check_positive(record, names: tuple[str, ...]) -> None:
    """Refuse a table of ``record`` with an entry that is not strictly positive."""
    for name in names:
        if not np.all(getattr(record, name) > 0):
            raise ValueError(f"{name} entries must be strictly positive")


@dataclass(frozen=True, eq=False)
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
        _set_tables(self, "alpha", ("gamma",), "pi")
        check_row_stochastic(self.alpha, "alpha")
        check_row_stochastic(self.pi, "pi")
        outside = ~((self.gamma >= 0) & (self.gamma <= 1))
        if outside.any():
            r, s = np.argwhere(outside)[0]
            raise ValueError(f"gamma entries must lie in [0, 1], got "
                             f"gamma[{r}, {s}] = {self.gamma[r, s]}")

    @property
    def n_subgraphs(self) -> int:
        return self.alpha.shape[0]

    @property
    def n_clusters(self) -> int:
        return self.alpha.shape[1]

    @property
    def n_types(self) -> int:
        return self.pi.shape[2]


@dataclass(frozen=True, eq=False)
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
    alternative is 1 everywhere (:meth:`constant` with ``value=1.0``).

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
        _set_tables(self, "chi0", ("a0", "b0"), "xi0")
        _check_positive(self, ("chi0", "a0", "b0", "xi0"))

    @classmethod
    def constant(cls, n_subgraphs: int, n_clusters: int, n_types: int,
                 value: float) -> "PriorHyperparams":
        """Every hyperparameter set to the same positive ``value``."""
        s, k, c = (_count(n_subgraphs, "n_subgraphs"), _count(n_clusters, "n_clusters"),
                   _count(n_types, "n_types"))
        if value <= 0:
            raise ValueError(f"prior value must be > 0, got {value}")
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
        return _readonly(scipy.special.betaln(self.a0, self.b0))

    @cached_property
    def log_norm_chi0(self) -> np.ndarray:
        """Length-S array of log C(chi0_s)."""
        return _readonly(log_dirichlet_norm(self.chi0, axis=1))

    @cached_property
    def log_norm_xi0(self) -> np.ndarray:
        """K x K array of log C(xi0_kl)."""
        return _readonly(log_dirichlet_norm(self.xi0, axis=2))


@dataclass(frozen=True, eq=False)
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
        if tau.ndim != 2:
            raise ValueError(f"tau must be N x K, got shape {tau.shape}")
        _set_tables(self, "chi", ("a", "b"), "xi", k=tau.shape[1])
        check_row_stochastic(tau, "tau")
        _check_positive(self, ("chi", "a", "b", "xi"))
        object.__setattr__(self, "tau", _readonly(tau))

    @classmethod
    def _unchecked(cls, tau, chi, a, b, xi) -> "VariationalState":
        """A state over the given float64 arrays, neither copied nor checked.

        For the update loop, which builds one per iteration from arrays it
        has just computed, each with a leading restart axis when it runs
        restarts in lockstep; :func:`rsm.inference.fit_single` returns
        states built by the checking constructor.
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


@dataclass(frozen=True, eq=False)
class RestartSummary:
    """One restart of :func:`rsm.inference.fit_single`: its bound per
    iteration (empty if it failed numerically) and why it stopped:
    ``"converged"``, ``"max_iterations"`` (the cap came first) or
    ``"failed: <message>"``, the FloatingPointError it raises alone."""

    elbo_trace: np.ndarray
    stop_reason: str

    def __post_init__(self):
        object.__setattr__(self, "elbo_trace", _readonly(self.elbo_trace, np.float64))
        if self.stop_reason not in ("converged", "max_iterations") and not (
                isinstance(self.stop_reason, str) and self.stop_reason.startswith("failed: ")):
            raise ValueError("stop_reason must be 'converged', 'max_iterations' or "
                             f"'failed: <message>', got {self.stop_reason!r}")

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def final_elbo(self) -> float:
        """The last bound value, or NaN for a failed restart."""
        return float(self.elbo_trace[-1]) if len(self.elbo_trace) else float("nan")

    @property
    def n_iterations(self) -> int:
        return len(self.elbo_trace)


@dataclass(frozen=True, eq=False)
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
