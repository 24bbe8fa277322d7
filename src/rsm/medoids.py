"""Hard initialization of cluster responsibilities via k-medoids.

Vertices are compared with a discordance count: for each third vertex h that
both i and j point to, a disagreement in edge type counts 1, and likewise for
each h pointing to both.  Edges that are not present on both sides contribute
nothing, so the measure only reacts to differently-typed shared connections.

The matrix depends on the network alone, so :func:`kmedoid_init` takes it as
its input: :func:`rsm.inference.fit` builds it once with
:func:`distance_matrix` for every restart, and
:func:`rsm.selection.select_k` once for every candidate K.
"""

from __future__ import annotations

import numpy as np

from .network import TypedNetwork

# Cap on assignment/medoid alternations; stability is normally reached in a
# handful of rounds.
MAX_MEDOID_ROUNDS = 50


def distance_matrix(net: TypedNetwork) -> np.ndarray:
    """All-pairs discordance matrix, float64 with integer entries.

    With A the presence indicator and M_c the indicator of type c, the count
    is ``A Aᵀ + Aᵀ A`` (shared out- and in-neighbours) minus
    ``M_c M_cᵀ + M_cᵀ M_c`` summed over types (those that agree).  One
    indicator at a time is filled in from the edge list, and the products
    run in float64 so that numpy hands them to BLAS; every entry is an
    integer of at most 2(N - 2), far below 2**53, so the float sums are
    exact in any order.
    """
    m = np.zeros((net.n_vertices, net.n_vertices))
    m[net.src, net.dst] = 1.0
    d = m @ m.T
    d += m.T @ m
    for c in range(1, net.n_types + 1):
        # rewriting every edge position clears the previous indicator
        m[net.src, net.dst] = net.types == c
        d -= m @ m.T
        d -= m.T @ m
    return d


def kmedoid_init(distances: np.ndarray, n_clusters: int, seed: int) -> np.ndarray:
    """Hard N x K responsibility matrix from k-medoids on the discordance.

    ``distances`` is the N x N :func:`distance_matrix` of the network; it is
    read, never written, so one matrix serves every initialization.

    Centers are drawn among the vertices without replacement, each starting
    as a singleton cluster.  Vertices are then assigned to the cluster with
    the smallest mean discordance to its members (ties to the lowest-indexed
    cluster); averaging over members rather than comparing against the
    single center vertex is what lets weak per-pair signal accumulate.  Each
    nonempty cluster's center moves to the member minimizing the summed
    distance to the cluster (ties to the lowest vertex index).  Alternation
    stops once centers and assignments are both stable, or after
    ``MAX_MEDOID_ROUNDS``.

    Each step reads its per-cluster sums from one product of the distances
    with the assignment indicator; the sums are integers below 2**53, so they
    are exact and the tie-breaking above is unaffected.

    When ``n_clusters`` exceeds the number of vertices, every vertex becomes
    a center and the surplus clusters stay empty.
    """
    if n_clusters < 1:
        raise ValueError(f"n_clusters must be >= 1, got {n_clusters}")
    shape = np.shape(distances)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"distances must be a square matrix, got shape {shape}")
    d = np.asarray(distances, dtype=np.float64)
    n = shape[0]
    if n == 0:
        return np.zeros((0, n_clusters))
    k_used = min(n_clusters, n)
    rng = np.random.default_rng(seed)
    centers = rng.choice(n, size=k_used, replace=False)
    assign = np.argmin(d[:, centers], axis=1)
    for _ in range(MAX_MEDOID_ROUNDS):
        sums, sizes = _cluster_sums(d, assign, k_used)
        cost = d[:, centers]
        filled = sizes > 0
        cost[:, filled] = sums[:, filled] / sizes[filled]
        new_assign = np.argmin(cost, axis=1)
        sums, sizes = _cluster_sums(d, new_assign, k_used)
        within = np.where(new_assign[:, None] == np.arange(k_used), sums, np.inf)
        new_centers = np.where(sizes > 0, np.argmin(within, axis=0), centers)
        stable = (np.array_equal(np.sort(new_centers), np.sort(centers))
                  and np.array_equal(new_assign, assign))
        centers, assign = new_centers, new_assign
        if stable:
            break

    tau = np.zeros((n, n_clusters))
    tau[np.arange(n), assign] = 1.0
    return tau


def _cluster_sums(d: np.ndarray, assign: np.ndarray, n_clusters: int):
    """Summed distance from every vertex to each cluster's members (N x K),
    and the cluster sizes, from one product with the assignment indicator."""
    n = len(assign)
    onehot = np.zeros((n, n_clusters))
    onehot[np.arange(n), assign] = 1.0
    return d @ onehot, np.bincount(assign, minlength=n_clusters)
