"""Clustering of directed typed-edge networks with a known vertex partition.

The model: edge presence depends on the two endpoints' observed subgraphs,
vertices carry latent clusters drawn per subgraph, and the type of each
present edge is drawn from a distribution indexed by the endpoint clusters.
Inference is variational Bayes with conjugate priors; the number of clusters
is chosen by the converged lower bound.
"""

from .generate import (
    GeneratedSample,
    ScenarioSpec,
    benchmark_scenario,
    benchmark_spec,
    demo_spec,
    expand_scenario,
    sample_network,
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
from .oracle import OracleLimits, exact_log_evidence
from .params import (
    FitResult,
    PriorHyperparams,
    RestartSummary,
    RsmParams,
    VariationalState,
)
from .selection import SelectionResult, select_k

__version__ = "0.1.0"

__all__ = [
    "FitConfig",
    "FitResult",
    "GeneratedSample",
    "OracleLimits",
    "PriorHyperparams",
    "RestartSummary",
    "RsmParams",
    "ScenarioSpec",
    "SelectionResult",
    "TypedNetwork",
    "ValidationReport",
    "VariationalState",
    "adjusted_rand_index",
    "benchmark_scenario",
    "benchmark_spec",
    "demo_spec",
    "distance_matrix",
    "e_step",
    "elbo",
    "exact_log_evidence",
    "expand_scenario",
    "fit",
    "fit_single",
    "kmedoid_init",
    "m_step_alpha",
    "m_step_gamma",
    "m_step_pi",
    "sample_network",
    "select_k",
    "validate_network",
]
