"""Choosing the number of clusters by the final bound value.

The bound integrates the model parameters out against their conjugate
priors, so its converged value already penalizes superfluous clusters and
can be compared across K directly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

from . import medoids
from .inference import FitConfig, _fit
from .network import TypedNetwork
from .params import FitResult

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class SelectionResult:
    """Best fit per candidate K, and the winner.

    k_star:
        Candidate with the highest final bound; ties go to the smallest K.
    per_k:
        Mapping K -> winning :class:`~rsm.params.FitResult` for that K.
    failures:
        Mapping K -> diagnostic for candidates excluded because every
        restart failed numerically.
    """

    k_star: int
    per_k: dict[int, FitResult]
    failures: dict[int, str]

    def best_elbo(self, k: int) -> float:
        return self.per_k[k].final_elbo

    def curve(self) -> list[tuple[int, float]]:
        """(K, best bound) pairs in increasing K order."""
        return [(k, self.per_k[k].final_elbo) for k in sorted(self.per_k)]


def select_k(net: TypedNetwork, k_values, config: FitConfig) -> SelectionResult:
    """Fit every candidate K and keep the one with the highest final bound.

    ``k_values`` is any iterable of candidate cluster counts; duplicates are
    collapsed and order is irrelevant.  Candidate K is fitted with seed
    ``config.seed + 1000 * K`` (restarts then offset that, as in
    :func:`~rsm.inference.fit`), so runs are reproducible and independent of
    enumeration order.  ``config.priors`` must be None: shape-correct priors
    at ``config.prior_concentration`` are built per K.

    The network's discordance matrix
    (:func:`~rsm.medoids.distance_matrix`) is built once, here; every K's
    restarts pass that one matrix to :func:`~rsm.medoids.kmedoid_init`.
    """
    ks = sorted({int(k) for k in k_values})
    if not ks:
        raise ValueError("k_values must contain at least one candidate")
    if any(k < 1 for k in ks):
        raise ValueError(f"cluster counts must be >= 1, got {ks}")
    if config.priors is not None:
        raise ValueError("select_k builds priors per K; leave config.priors unset "
                         "and use config.prior_concentration")

    distances = medoids.distance_matrix(net)
    per_k: dict[int, FitResult] = {}
    failures: dict[int, str] = {}
    for k in ks:
        k_config = replace(config, n_clusters=k, seed=config.seed + 1000 * k)
        try:
            per_k[k] = _fit(net, k_config, distances)
        except FloatingPointError as exc:
            failures[k] = str(exc)
            logger.warning("excluding K=%d: every restart failed (%s)", k, exc)
    if not per_k:
        raise FloatingPointError(
            "every candidate K failed: " +
            "; ".join(f"K={k}: {msg}" for k, msg in failures.items()))

    k_star = max(per_k, key=lambda k: (per_k[k].final_elbo, -k))
    return SelectionResult(k_star=k_star, per_k=per_k, failures=failures)
