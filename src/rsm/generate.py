"""Sampling networks from the generative model, plus benchmark presets.

:func:`sample_network` draws a network from full
:class:`~rsm.params.RsmParams` tables and a vector of subgraph labels.
:func:`scenario_params` builds that pair for the structured
parameterization the presets use: one type distribution shared by all
within-cluster edges, another shared by all between-cluster edges, an edge
probability that depends only on whether the two endpoints share a
subgraph, and vertices laid out contiguously by subgraph size, the rule
that the parameter files of :mod:`rsm.io` follow too.  The sampler draws
each subgraph block's edges directly, a binomial count and then that many
distinct pairs, as in the block-wise generation of Batagelj & Brandes (2005,
*Efficient generation of large random networks*, Phys. Rev. E 71, 036113),
draws a type only for each present edge, and hands the edge list to
:meth:`~rsm.network.TypedNetwork.from_edges`; its time and memory grow with
the number of edges, and no N x N array is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import (TypedNetwork, _count, _int_vector, _readonly, _refuse_outside,
                      _refuse_past_memory)
from .params import RsmParams


@dataclass(frozen=True, eq=False)
class GeneratedSample:
    """A sampled network, its true clusters (N labels in ``0..K - 1``) and its parameters."""

    network: TypedNetwork
    true_labels: np.ndarray
    params: RsmParams

    def __post_init__(self):
        labels = _int_vector(self.true_labels, "true_labels", self.network.n_vertices)
        _refuse_outside(labels, self.params.n_clusters, "true label")
        object.__setattr__(self, "true_labels", _readonly(labels))


def scenario_params(alpha, type_probs_within, type_probs_between,
                    edge_prob_within: float, edge_prob_between: float,
                    subgraph_sizes) -> tuple[RsmParams, np.ndarray]:
    """Full parameter tables and subgraph labels of a structured scenario,
    the pair :func:`sample_network` takes.

    ``alpha`` (S x K) passes through.  gamma gets ``edge_prob_within`` on
    the diagonal and ``edge_prob_between`` elsewhere; every diagonal pi
    slice is ``type_probs_within`` and every off-diagonal slice is
    ``type_probs_between``, two equal-length type distributions.  The
    labels are laid out contiguously from ``subgraph_sizes``, one size per
    subgraph.  :class:`~rsm.params.RsmParams` checks the tables.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    u = np.asarray(type_probs_within, dtype=np.float64)
    v = np.asarray(type_probs_between, dtype=np.float64)
    if u.ndim != 1 or v.shape != u.shape:
        raise ValueError("type_probs_within and type_probs_between must be "
                         "equal-length vectors")
    # RsmParams refuses an alpha that is not S x K
    s, k = alpha.shape if alpha.ndim == 2 else (1, 1)
    gamma = np.full((s, s), edge_prob_between, dtype=np.float64)
    np.fill_diagonal(gamma, edge_prob_within)
    pi = np.broadcast_to(v, (k, k, u.shape[0])).copy()
    pi[np.arange(k), np.arange(k)] = u
    params = RsmParams(alpha=alpha, gamma=gamma, pi=pi)
    return params, labels_from_sizes(subgraph_sizes, params.n_subgraphs)


def _sizes(sizes, n_subgraphs: int) -> np.ndarray:
    """``sizes`` as an int64 vector of ``n_subgraphs`` nonnegative sizes.
    Another shape, a fraction and a negative size are refused with a
    ValueError naming ``subgraph_sizes``; a value that is not a number
    fails numpy's conversion to float."""
    n_subgraphs = _count(n_subgraphs, "n_subgraphs")
    sizes = np.asarray(sizes, dtype=np.float64)
    if sizes.ndim != 1 or sizes.shape[0] != n_subgraphs:
        raise ValueError(f"subgraph_sizes must list {n_subgraphs} sizes, "
                         f"got shape {sizes.shape}")
    sizes = _int_vector(sizes, "subgraph_sizes")
    if np.any(sizes < 0):
        raise ValueError(f"subgraph_sizes must be nonnegative, got {sizes.min()}")
    return sizes


def labels_from_sizes(sizes, n_subgraphs: int) -> np.ndarray:
    """Contiguous subgraph labels: the first ``sizes[0]`` vertices in
    subgraph 0, the next ``sizes[1]`` in subgraph 1, and so on.

    ``sizes`` must be a vector of ``n_subgraphs`` nonnegative integers, as
    :func:`_sizes` checks.  Labels whose 8 N bytes would take more than
    physical memory are refused with a ValueError before they are
    allocated.
    """
    sizes = _sizes(sizes, n_subgraphs)
    n = sum(sizes.tolist())
    _refuse_past_memory(8 * n, f"the subgraph labels of {n} vertices")
    return np.repeat(np.arange(sizes.size), sizes)


def sample_network(params: RsmParams, subgraph_of: np.ndarray,
                   seed: int) -> GeneratedSample:
    """Draw one network from the generative model.

    A single generator seeded with ``seed`` drives all draws, in a fixed
    order.  First the edges, block by block: for each ordered subgraph pair
    (r, q), row-major over the blocks, a binomial count of present pairs
    with probability ``gamma[r, q]``, then that many distinct pairs drawn
    without replacement among the block's ordered pairs without self-loops.
    Then the cluster memberships, one uniform per vertex in index order.
    Then, with the edges sorted row-major, one uniform per edge for its
    type.  The same seed therefore reproduces the same sample bit for bit.

    Time and memory grow with the number of edges E (plus N for the
    memberships), not with N².  A block of more than 2**20 pairs is drawn
    in chunks of its source rows of at most 2**20 pairs each, each chunk
    with its own count, which keeps the draw exact, and the type uniforms
    are drawn 2**20 at a time, so no temporary holds more than about 2**20
    entries beyond the edge list itself.  Anything but a vector of integers
    in ``0..S - 1`` is refused with a ValueError, which names the first
    label out of range and its vertex.  So is a sample whose expected edge
    count E, ``gamma`` times each block's ordered pairs, would take more
    than physical memory; nothing is drawn before that.  The count is 48
    bytes per edge for the edge list and the network's copy of it, plus
    (24 + 8 C) bytes for each edge of the type step's largest chunk, at
    most 2**20 edges: its uniforms, the two gathered cluster labels and the
    gathered rows of cumulative type probabilities.  tracemalloc's peak
    stays below that count: 72-75 bytes per edge at C = 3 on samples of
    12 000 to 200 000 edges, against 96 counted.
    """
    subgraph_of = _int_vector(subgraph_of, "subgraph_of")
    n = subgraph_of.shape[0]
    s = params.n_subgraphs
    _refuse_outside(subgraph_of, s, "subgraph label")
    rng = np.random.default_rng(_count(seed, "seed", 0))
    sizes = np.bincount(subgraph_of, minlength=s)
    expected = float((params.gamma * (np.outer(sizes, sizes) - np.diag(sizes))).sum())
    chunk = min(expected, _CHUNK_PAIRS)
    _refuse_past_memory(int(_EDGE_BYTES * expected + (24 + 8 * params.n_types) * chunk),
                        f"a sample of about {expected:.0f} edges on {n} vertices")
    src, dst, types, z = _draw(params, subgraph_of, rng)
    net = TypedNetwork.from_edges(n, src, dst, types, subgraph_of,
                                  n_types=params.n_types, n_subgraphs=s)
    return GeneratedSample(network=net, true_labels=z, params=params)


# Bytes held per edge at once: the drawn src, dst and types and the
# network's copies of them, six int64 values
_EDGE_BYTES = 48

# Ordered pairs per count-and-choice draw, and type uniforms per draw.  Above
# a 2% density, choice without replacement allocates one index per pair, so
# this bounds that array to 8 MB.
_CHUNK_PAIRS = 1 << 20


def _draw(params: RsmParams, subgraph_of: np.ndarray, rng: np.random.Generator):
    """The edge list ``(src, dst, types)``, sorted row-major, and the
    memberships ``z`` of one sample, in the stream order that
    :func:`sample_network` documents.

    Consecutive ``rng.random`` calls continue one stream, so drawing the
    type uniforms in chunks does not change them.
    """
    n = subgraph_of.shape[0]
    k, c = params.n_clusters, params.n_types
    src, dst = np.divmod(_edge_keys(params.gamma, subgraph_of, rng), max(n, 1))

    cum_alpha = np.cumsum(params.alpha[subgraph_of], axis=1)
    z = np.minimum((rng.random(n)[:, None] >= cum_alpha).sum(axis=1), k - 1)

    cum_pi = np.cumsum(params.pi, axis=2)
    types = np.empty(len(src), dtype=np.int64)
    for e0 in range(0, len(src), _CHUNK_PAIRS):
        part = slice(e0, e0 + _CHUNK_PAIRS)
        u = rng.random(len(src[part]))[:, None]
        types[part] = (u >= cum_pi[z[src[part]], z[dst[part]]]).sum(axis=1) + 1
    return src, dst, np.minimum(types, c), z


def _edge_keys(gamma: np.ndarray, subgraph_of: np.ndarray, rng: np.random.Generator):
    """The present edges i -> j as sorted keys ``i * N + j``: per ordered
    subgraph block, row-major, a binomial count and then that many distinct
    pairs without replacement.

    Disjoint sets of pairs are independent, so splitting a block into
    chunks of source rows, each with its own count, draws the same
    distribution.
    """
    n = subgraph_of.shape[0]
    members = np.split(np.argsort(subgraph_of, kind="stable"),
                       np.cumsum(np.bincount(subgraph_of, minlength=len(gamma)))[:-1])
    keys = [np.zeros(0, dtype=np.int64)]
    for r, rows in enumerate(members):
        for q, cols in enumerate(members):
            # pairs per source row; the diagonal block leaves out i -> i
            width = len(cols) - (r == q)
            if width <= 0:
                continue
            height = max(1, _CHUNK_PAIRS // width)
            for r0 in range(0, len(rows), height):
                n_pairs = min(height, len(rows) - r0) * width
                m = rng.binomial(n_pairs, gamma[r, q])
                i, j = np.divmod(rng.choice(n_pairs, m, replace=False), width)
                i += r0
                if r == q:
                    j += j >= i
                keys.append(rows[i] * n + cols[j])
    return np.sort(np.concatenate(keys))


def benchmark_params(which: int) -> tuple[RsmParams, np.ndarray]:
    """Tables and subgraph labels of benchmark scenario 1, 2 or 3 (100
    vertices, K=3, C=3).

    1. Assortative types in a single subgraph: within-cluster edges are
       mostly type 1, between-cluster edges mostly type 3.
    2. Harder single-subgraph variant with overlapping type distributions.
    3. Three subgraphs whose mixing rows each exclude one cluster, with
       slightly denser between-subgraph connectivity.
    """
    which = _count(which, "which")
    if which == 1:
        return scenario_params(
            alpha=[[0.3, 0.3, 0.4]],
            type_probs_within=[0.8, 0.1, 0.1],
            type_probs_between=[0.1, 0.1, 0.8],
            edge_prob_within=0.2,
            edge_prob_between=0.06,
            subgraph_sizes=[100],
        )
    if which == 2:
        return scenario_params(
            alpha=[[0.3, 0.3, 0.4]],
            type_probs_within=[0.5, 0.45, 0.05],
            type_probs_between=[0.1, 0.45, 0.45],
            edge_prob_within=0.2,
            edge_prob_between=0.06,
            subgraph_sizes=[100],
        )
    if which == 3:
        return scenario_params(
            alpha=[[0.0, 0.5, 0.5],
                   [0.5, 0.0, 0.5],
                   [0.5, 0.5, 0.0]],
            type_probs_within=[0.5, 0.45, 0.05],
            type_probs_between=[0.1, 0.45, 0.45],
            edge_prob_within=0.2,
            edge_prob_between=0.1,
            subgraph_sizes=[34, 33, 33],
        )
    raise ValueError(f"invalid scenario: {which} (choose 1, 2, or 3)")


def benchmark_scenario(which: int, seed: int) -> GeneratedSample:
    """Sample one network from benchmark scenario 1, 2, or 3."""
    return sample_network(*benchmark_params(which), seed)


def demo_params() -> tuple[RsmParams, np.ndarray]:
    """A small 30-vertex, two-subgraph preset used in documentation and smoke tests.

    The two subgraphs prefer opposite clusters, within-subgraph connectivity
    is dense (0.6), and edge types are strongly assortative.
    """
    return scenario_params(
        alpha=[[0.1, 0.3, 0.6],
               [0.6, 0.3, 0.1]],
        type_probs_within=[0.8, 0.1, 0.1],
        type_probs_between=[0.1, 0.3, 0.6],
        edge_prob_within=0.6,
        edge_prob_between=0.06,
        subgraph_sizes=[15, 15],
    )
