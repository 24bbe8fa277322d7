"""Choosing the number of clusters by the final bound value.

The bound integrates the model parameters out against their conjugate
priors, so its converged value already penalizes superfluous clusters and
can be compared across K directly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

from . import medoids
from .inference import FitConfig, _fit, _refuse_past_loop
from .network import TypedNetwork, _count
from .params import FitResult

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """Best fit per candidate K, and the winner.

    per_k:
        Mapping K -> winning :class:`~rsm.params.FitResult` for that K.
    failures:
        Mapping K -> diagnostic for candidates excluded because every
        restart failed numerically.

    ``k_star`` is the candidate with the highest final bound; ties go to
    the smallest K.
    """

    per_k: dict[int, FitResult]
    failures: dict[int, str]

    @property
    def k_star(self) -> int:
        return max(self.per_k, key=lambda k: (self.per_k[k].final_elbo, -k))

    def curve(self) -> list[tuple[int, float]]:
        """(K, best bound) pairs in increasing K order."""
        return [(k, self.per_k[k].final_elbo) for k in sorted(self.per_k)]


def select_k(net: TypedNetwork, k_values, config: FitConfig) -> SelectionResult:
    """Fit every candidate K and keep the one with the highest final bound.

    ``k_values`` is any iterable of candidate cluster counts; duplicates are
    collapsed and order is irrelevant.  Candidate K is fitted exactly as
    :func:`~rsm.inference.fit` fits ``replace(config, n_clusters=K)``, with
    restart r seeded ``config.seed + r``, so ``per_k[K]`` is that fit, bit
    for bit.  ``config.priors`` must be None: the default priors are built
    per K.

    The update loop of the largest K, the largest of them, is checked
    against physical memory first, before anything is built or drawn.  The
    network's discordance (:func:`~rsm.medoids.distance_matrix`, two sparse
    factors or, on a dense network, an all-pairs array) is then built once,
    here; every K's restarts pass it to :func:`~rsm.medoids.kmedoid_init`.
    """
    ks = sorted({_count(k, "n_clusters") for k in k_values})
    if not ks:
        raise ValueError("k_values must contain at least one candidate")
    if config.priors is not None:
        raise ValueError("select_k builds priors per K; leave config.priors unset")

    _refuse_past_loop(net, config.n_restarts, ks[-1])
    distances = medoids.distance_matrix(net)
    per_k: dict[int, FitResult] = {}
    failures: dict[int, str] = {}
    for k in ks:
        try:
            per_k[k] = _fit(net, replace(config, n_clusters=k), distances)
        except FloatingPointError as exc:
            failures[k] = str(exc)
            logger.warning("excluding K=%d: %s", k, exc)
    if not per_k:
        raise FloatingPointError(
            "every candidate K failed: " +
            "; ".join(f"K={k}: {msg}" for k, msg in failures.items()))
    return SelectionResult(per_k=per_k, failures=failures)
