"""Clustering of directed typed-edge networks with a known vertex partition.

The model: edge presence depends on the two endpoints' observed subgraphs,
vertices carry latent clusters drawn per subgraph, and the type of each
present edge is drawn from a distribution indexed by the endpoint clusters.
Inference is variational Bayes with conjugate priors; the number of clusters
is chosen by the converged lower bound.

Importing the package loads numpy and scipy's top-level package only;
scipy's special functions and sparse arrays load at the first fit, bound,
discordance or exact-evidence call, so generating, evaluating and reading or
writing networks start without them.
"""

import logging

from .generate import (
    GeneratedSample,
    benchmark_params,
    benchmark_scenario,
    demo_params,
    sample_network,
    scenario_params,
)
from .inference import (
    FitConfig,
    e_step,
    elbo,
    fit,
    fit_single,
    m_step_alpha,
    m_step_gamma,
    m_step_pi,
)
from .medoids import distance_matrix, kmedoid_init
from .metrics import adjusted_rand_index
from .network import TypedNetwork, ValidationReport, validate_network
from .oracle import exact_log_evidence
from .params import (
    FitResult,
    PriorHyperparams,
    RestartSummary,
    RsmParams,
    VariationalState,
)
from .selection import SelectionResult, select_k

__version__ = "0.1.0"

# a library leaves its records to the application's handlers
logging.getLogger(__name__).addHandler(logging.NullHandler())

__all__ = [
    "FitConfig",
    "FitResult",
    "GeneratedSample",
    "PriorHyperparams",
    "RestartSummary",
    "RsmParams",
    "SelectionResult",
    "TypedNetwork",
    "ValidationReport",
    "VariationalState",
    "adjusted_rand_index",
    "benchmark_params",
    "benchmark_scenario",
    "demo_params",
    "distance_matrix",
    "e_step",
    "elbo",
    "exact_log_evidence",
    "fit",
    "fit_single",
    "kmedoid_init",
    "m_step_alpha",
    "m_step_gamma",
    "m_step_pi",
    "sample_network",
    "scenario_params",
    "select_k",
    "validate_network",
]
