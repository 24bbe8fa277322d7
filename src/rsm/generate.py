"""Sampling networks from the generative model, plus benchmark presets.

A :class:`ScenarioSpec` describes a structured parameterization: one type
distribution shared by all within-cluster edges, another shared by all
between-cluster edges, and an edge probability that depends only on whether
the two endpoints share a subgraph.  :func:`expand_scenario` turns it into
full :class:`~rsm.params.RsmParams` tables, and :func:`sample_network` draws
a network from any such tables.  The sampler keeps only the present edges,
drawing the uniforms a block of rows at a time, and hands the edge list to
:meth:`~rsm.network.TypedNetwork.from_edges`; no N x N array is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import TypedNetwork, _readonly
from .params import RsmParams, check_row_stochastic


@dataclass(frozen=True, eq=False)
class ScenarioSpec:
    """Structured parameterization of the generative model.

    alpha:
        S x K mixing proportions per subgraph.
    type_probs_within:
        Length-C type distribution for edges joining two vertices of the
        same cluster.
    type_probs_between:
        Length-C type distribution for edges joining different clusters.
    edge_prob_within:
        Presence probability for vertex pairs in the same subgraph.
    edge_prob_between:
        Presence probability for vertex pairs in different subgraphs.
    subgraph_sizes:
        Number of vertices per subgraph; vertices are assigned contiguously
        (the first ``subgraph_sizes[0]`` vertices to subgraph 0, and so on).
    """

    alpha: np.ndarray
    type_probs_within: np.ndarray
    type_probs_between: np.ndarray
    edge_prob_within: float
    edge_prob_between: float
    subgraph_sizes: tuple[int, ...]

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=np.float64)
        u = np.asarray(self.type_probs_within, dtype=np.float64)
        v = np.asarray(self.type_probs_between, dtype=np.float64)
        sizes = tuple(int(n) for n in self.subgraph_sizes)
        if alpha.ndim != 2:
            raise ValueError(f"alpha must be S x K, got shape {alpha.shape}")
        if u.ndim != 1 or v.shape != u.shape:
            raise ValueError("type_probs_within and type_probs_between must be "
                             "equal-length vectors")
        if len(sizes) != alpha.shape[0]:
            raise ValueError(f"need one subgraph size per alpha row, got {len(sizes)} "
                             f"sizes for {alpha.shape[0]} rows")
        if any(n < 0 for n in sizes):
            raise ValueError("subgraph sizes must be nonnegative")
        check_row_stochastic(alpha, "alpha")
        check_row_stochastic(u, "type_probs_within")
        check_row_stochastic(v, "type_probs_between")
        for name, p in (("edge_prob_within", self.edge_prob_within),
                        ("edge_prob_between", self.edge_prob_between)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {p}")
        object.__setattr__(self, "alpha", _readonly(alpha))
        object.__setattr__(self, "type_probs_within", _readonly(u))
        object.__setattr__(self, "type_probs_between", _readonly(v))
        object.__setattr__(self, "subgraph_sizes", sizes)

    @property
    def n_vertices(self) -> int:
        return sum(self.subgraph_sizes)

    @property
    def n_subgraphs(self) -> int:
        return self.alpha.shape[0]

    @property
    def n_clusters(self) -> int:
        return self.alpha.shape[1]

    @property
    def n_types(self) -> int:
        return self.type_probs_within.shape[0]

    def subgraph_labels(self) -> np.ndarray:
        """Length-N vector of contiguous subgraph labels implied by the sizes."""
        return np.repeat(np.arange(self.n_subgraphs), self.subgraph_sizes)


@dataclass(frozen=True, eq=False)
class GeneratedSample:
    """A sampled network together with the clusters and parameters behind it."""

    network: TypedNetwork
    true_labels: np.ndarray
    params: RsmParams

    def __post_init__(self):
        labels = np.asarray(self.true_labels, dtype=np.int64)
        if labels.shape != (self.network.n_vertices,):
            raise ValueError(f"true_labels must have length {self.network.n_vertices}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.params.n_clusters):
            raise ValueError("true_labels outside 0..K-1")
        object.__setattr__(self, "true_labels", _readonly(labels))


def expand_scenario(spec: ScenarioSpec) -> RsmParams:
    """Expand a structured scenario into full parameter tables.

    gamma gets ``edge_prob_within`` on the diagonal and ``edge_prob_between``
    elsewhere; every diagonal pi slice is ``type_probs_within`` and every
    off-diagonal slice is ``type_probs_between``.
    """
    s, k, c = spec.n_subgraphs, spec.n_clusters, spec.n_types
    gamma = np.full((s, s), spec.edge_prob_between)
    np.fill_diagonal(gamma, spec.edge_prob_within)
    pi = np.broadcast_to(spec.type_probs_between, (k, k, c)).copy()
    pi[np.arange(k), np.arange(k)] = spec.type_probs_within
    return RsmParams(alpha=spec.alpha, gamma=gamma, pi=pi)


def sample_network(params: RsmParams, subgraph_of: np.ndarray,
                   seed: int) -> GeneratedSample:
    """Draw one network from the generative model.

    A single generator seeded with ``seed`` drives all draws, in a fixed
    order: one uniform per ordered vertex pair for presence (row-major over
    the full matrix), then cluster memberships (by vertex index), then one
    uniform per ordered pair for the type (row-major), of which only the
    present pairs' are used.  The same seed therefore reproduces the same
    sample bit for bit.  The pairs are drawn a block of rows at a time, so
    memory grows with the number of edges, not with N².
    """
    subgraph_of = np.asarray(subgraph_of, dtype=np.int64)
    n = subgraph_of.shape[0]
    s = params.n_subgraphs
    if subgraph_of.size and (subgraph_of.min() < 0 or subgraph_of.max() >= s):
        raise ValueError(f"subgraph labels outside 0..{s - 1}")
    src, dst, types, z = _draw(params, subgraph_of, np.random.default_rng(seed),
                               max(1, _BLOCK_ELEMENTS // max(n, 1)))
    net = TypedNetwork.from_edges(n, src, dst, types, subgraph_of,
                                  n_types=params.n_types, n_subgraphs=s)
    return GeneratedSample(network=net, true_labels=z, params=params)


# Uniforms per block of rows: about 8 MB of doubles per draw.
_BLOCK_ELEMENTS = 1 << 20


def _draw(params: RsmParams, subgraph_of: np.ndarray, rng: np.random.Generator,
          block_rows: int):
    """The edge list ``(src, dst, types)`` and the memberships ``z`` of one
    sample, drawing ``block_rows`` rows of uniforms at a time.

    Consecutive ``rng.random`` calls continue one stream, so every block
    height draws the same values as one N x N call.
    """
    n = subgraph_of.shape[0]
    k, c = params.n_clusters, params.n_types
    blocks = [(r0, min(r0 + block_rows, n)) for r0 in range(0, n, block_rows)]

    p_edge = params.gamma[:, subgraph_of]
    present = []
    for r0, r1 in blocks:
        hit = rng.random((r1 - r0, n)) < p_edge[subgraph_of[r0:r1]]
        hit[np.arange(r1 - r0), np.arange(r0, r1)] = False
        present.append(np.nonzero(hit))

    cum_alpha = np.cumsum(params.alpha[subgraph_of], axis=1)
    z = np.minimum((rng.random(n)[:, None] >= cum_alpha).sum(axis=1), k - 1)

    cum_pi = np.cumsum(params.pi, axis=2)
    edges = []
    for (r0, r1), (rows, cols) in zip(blocks, present):
        u = rng.random((r1 - r0, n))[rows, cols]
        rows = rows + r0
        drawn = (u[:, None] >= cum_pi[z[rows], z[cols]]).sum(axis=1) + 1
        edges.append((rows, cols, np.minimum(drawn, c)))
    empty = np.zeros(0, dtype=np.int64)
    src, dst, types = (np.concatenate(part) for part in zip(*edges, (empty,) * 3))
    return src, dst, types, z


def benchmark_spec(which: int) -> ScenarioSpec:
    """One of the three standard benchmark scenarios (100 vertices, K=3, C=3).

    1. Assortative types in a single subgraph: within-cluster edges are
       mostly type 1, between-cluster edges mostly type 3.
    2. Harder single-subgraph variant with overlapping type distributions.
    3. Three subgraphs whose mixing rows each exclude one cluster, with
       slightly denser between-subgraph connectivity.
    """
    if which == 1:
        return ScenarioSpec(
            alpha=[[0.3, 0.3, 0.4]],
            type_probs_within=[0.8, 0.1, 0.1],
            type_probs_between=[0.1, 0.1, 0.8],
            edge_prob_within=0.2,
            edge_prob_between=0.06,
            subgraph_sizes=(100,),
        )
    if which == 2:
        return ScenarioSpec(
            alpha=[[0.3, 0.3, 0.4]],
            type_probs_within=[0.5, 0.45, 0.05],
            type_probs_between=[0.1, 0.45, 0.45],
            edge_prob_within=0.2,
            edge_prob_between=0.06,
            subgraph_sizes=(100,),
        )
    if which == 3:
        return ScenarioSpec(
            alpha=[[0.0, 0.5, 0.5],
                   [0.5, 0.0, 0.5],
                   [0.5, 0.5, 0.0]],
            type_probs_within=[0.5, 0.45, 0.05],
            type_probs_between=[0.1, 0.45, 0.45],
            edge_prob_within=0.2,
            edge_prob_between=0.1,
            subgraph_sizes=(34, 33, 33),
        )
    raise ValueError(f"invalid scenario: {which} (choose 1, 2, or 3)")


def benchmark_scenario(which: int, seed: int) -> GeneratedSample:
    """Sample one network from benchmark scenario 1, 2, or 3."""
    spec = benchmark_spec(which)
    return sample_network(expand_scenario(spec), spec.subgraph_labels(), seed)


def demo_spec() -> ScenarioSpec:
    """A small 30-vertex, two-subgraph preset used in documentation and smoke tests.

    The two subgraphs prefer opposite clusters, within-subgraph connectivity
    is dense (0.6), and edge types are strongly assortative.
    """
    return ScenarioSpec(
        alpha=[[0.1, 0.3, 0.6],
               [0.6, 0.3, 0.1]],
        type_probs_within=[0.8, 0.1, 0.1],
        type_probs_between=[0.1, 0.3, 0.6],
        edge_prob_within=0.6,
        edge_prob_between=0.06,
        subgraph_sizes=(15, 15),
    )
