"""Hard initialization of cluster responsibilities via k-medoids.

Vertices are compared with a discordance count: for each third vertex h that
both i and j point to, a disagreement in edge type counts 1, and likewise for
each h pointing to both.  Edges that are not present on both sides contribute
nothing, so the measure only reacts to differently-typed shared connections.

The matrix depends on the network alone, so :func:`kmedoid_init` takes it as
its input: :func:`rsm.inference.fit` builds it once with
:func:`distance_matrix` for every restart, and
:func:`rsm.selection.select_k` once for every candidate K.

The k-medoid loop has one exit: its first repeated (centers, assignment) state.
"""

from __future__ import annotations

import os

import numpy as np

from .network import TypedNetwork, _count

# Cap on assignment/medoid alternations.  kmedoid_init stops at a run's first
# repeated state and returns the state the cap reaches; at K >= 2 on the paper's
# scenario networks, four runs in ten cycle, nearly all with period 2.
MAX_MEDOID_ROUNDS = 50


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


# A discordance matrix that needs more than this is refused before it is allocated.
PHYSICAL_MEMORY = _physical_memory()


def distance_matrix(net: TypedNetwork) -> np.ndarray:
    """All-pairs discordance matrix, float64 with integer entries.

    With A the presence indicator and M_c the indicator of type c, the count
    is ``A Aᵀ + Aᵀ A`` (shared out- and in-neighbours) minus
    ``M_c M_cᵀ + M_cᵀ M_c`` summed over types (those that agree).  One
    indicator at a time is filled in from the edge list, and the products
    run in float64 so that numpy hands them to BLAS; every entry is an
    integer of at most 2(N - 2), far below 2**53, so the float sums are
    exact in any order.

    Its peak is three N x N float64 arrays: the indicator, the result, and
    one product's temporary.  Raises ValueError, naming N and that size,
    when they would not fit in the machine's physical memory.
    """
    n = net.n_vertices
    size = 3 * 8 * n * n
    if PHYSICAL_MEMORY is not None and size > PHYSICAL_MEMORY:
        raise ValueError(
            f"the discordance matrix of a {n}-vertex network takes "
            f"{size / 2 ** 30:.1f} GiB ({size} bytes), more than the "
            f"{PHYSICAL_MEMORY / 2 ** 30:.1f} GiB of physical memory")
    m = np.zeros((n, n))
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
    distance to the cluster (ties to the lowest vertex index).  The rounds
    are deterministic in (centers, assignment), so the loop stops at the
    first round whose state repeats an earlier round's, settled (period 1)
    or cycling, and returns the assignment that round ``MAX_MEDOID_ROUNDS``
    would reach.

    Each round makes one product of the distances with the new assignment's
    indicator, whose per-cluster sums serve its medoid step and the next
    round's assignment; the sums are integers below 2**53, so they are exact
    and the tie-breaking above is unaffected.

    When ``n_clusters`` exceeds the number of vertices, every vertex becomes
    a center and the surplus clusters stay empty.
    """
    n_clusters, seed = _count(n_clusters, "n_clusters"), _count(seed, "seed", 0)
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
    sums, sizes = _cluster_sums(d, np.argmin(d[:, centers], axis=1), k_used)
    seen, history = {}, []
    for t in range(MAX_MEDOID_ROUNDS):
        cost = d[:, centers]
        filled = sizes > 0
        cost[:, filled] = sums[:, filled] / sizes[filled]
        assign = np.argmin(cost, axis=1)
        sums, sizes = _cluster_sums(d, assign, k_used)
        within = np.where(assign[:, None] == np.arange(k_used), sums, np.inf)
        centers = np.where(sizes > 0, np.argmin(within, axis=0), centers)
        t0 = seen.setdefault(centers.tobytes() + assign.tobytes(), t)
        if t0 < t:
            assign = history[t0 + (MAX_MEDOID_ROUNDS - 1 - t0) % (t - t0)]
            break
        history.append(assign)

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
