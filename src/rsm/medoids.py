"""Hard initialization of cluster responsibilities via k-medoids.

Vertices are compared with a discordance count: for each third vertex h that
both i and j point to, a disagreement in edge type counts 1, and likewise for
each h pointing to both.  Edges that are not present on both sides contribute
nothing, so the measure only reacts to differently-typed shared connections.

The discordance depends on the network alone, so :func:`kmedoid_init` takes
it as its input: :func:`rsm.inference.fit` builds it once with
:func:`distance_matrix` for every restart, and
:func:`rsm.selection.select_k` once for every candidate K.  It is the
product of two sparse factors: ``agree``, the network's typed operator
(:attr:`~rsm.network.TypedNetwork._type_operator`, which the VB-EM sweep
reads too) with its rows regrouped by vertex, and ``differ``, built from the
edge list.  On a sparse network it stays that product, which
:func:`kmedoid_init` reads only through products with thin matrices, so
memory and time grow with the edge count.
Only on a network dense enough for the all-pairs array to be the cheaper
form is it multiplied out.

The k-medoid loop has one exit: its first repeated (centers, assignment) state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy  # scipy.sparse loads on first use, not at `import rsm`

from .network import TypedNetwork, _count, _csr_bytes, _index_dtype, _refuse_past_memory

# Cap on assignment/medoid alternations.  kmedoid_init stops at a run's first
# repeated state and returns the state the cap reaches; at K >= 2 on the paper's
# scenario networks, four runs in ten cycle, nearly all with period 2.
MAX_MEDOID_ROUNDS = 50


@dataclass(frozen=True)
class _Factored:
    """The discordance as the product ``agree @ differ`` of its two sparse
    factors, never multiplied out: ``d @ v`` is ``agree @ (differ @ v)``,
    and :meth:`toarray` forms the all-pairs array."""

    agree: scipy.sparse.csr_array
    differ: scipy.sparse.csr_array

    @property
    def shape(self) -> tuple[int, int]:
        return self.agree.shape[0], self.differ.shape[1]

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.agree @ (self.differ @ v)

    def toarray(self) -> np.ndarray:
        return (self.agree @ self.differ).toarray()


def _keeps_factors(n_vertices: int, n_edges: int, n_types: int) -> bool:
    """Whether the discordance stays factored: when the factors' 2CE
    nonzeros, at about three times the cost of a dense entry, are fewer
    than the N² entries of the array (BENCH_discordance.json)."""
    return 6 * n_types * n_edges < n_vertices * n_vertices


def distance_matrix(net: TypedNetwork) -> _Factored | np.ndarray:
    """All-pairs discordance, as two sparse factors or as a float64 array.

    With one feature per (type, vertex) for out-neighbours and one for
    in-neighbours, ``agree`` (a row per vertex, a column per feature) marks
    each vertex's own features and ``differ`` (a row per feature, a column
    per vertex) the same features under each of the other C - 1 types, so
    ``agree @ differ`` counts the shared out- and in-neighbours whose edge
    types differ.  ``agree`` is the network's
    :attr:`~rsm.network.TypedNetwork._type_operator` with its rows regrouped
    by vertex, so this call builds that operator if nothing has yet, and the
    network keeps it.  The factors hold 2E and 2E(C - 1) ones; nothing
    cancels, so every entry is an exact integer of at most 2(N - 2).

    A network with 6CE < N² is sparse enough that products through the
    factors cost less than through the array; it gets a private product
    object with ``shape``, ``d @ v`` and ``toarray()``, which
    :func:`kmedoid_init` reads.  Any other network gets the all-pairs
    float64 array ``(agree @ differ).toarray()``.  The bytes of the chosen
    form are counted before anything is allocated: the operator, as CSR,
    whether or not the network holds it already; the two factors; and for
    the array, the sparse product and the array too.  A ValueError naming N
    and that size refuses a form that would not fit in the machine's
    physical memory.
    """
    n, c, e = net.n_vertices, net.n_types, len(net.src)
    factored = _keeps_factors(n, e, c)
    size = (_csr_bytes(2 * c * n, n, 2 * e) + _csr_bytes(n, 2 * c * n, 2 * e)
            + _csr_bytes(2 * c * n, n, 2 * e * (c - 1)))
    if not factored:
        # the product, as CSR with at most N² entries, and the array
        size += _csr_bytes(n, n, n * n) + 8 * n * n
    _refuse_past_memory(size, f"the discordance matrix of a {n}-vertex network")
    d = _Factored(*_factors(net))
    return d if factored else d.toarray()


def _factors(net: TypedNetwork) -> tuple[scipy.sparse.csr_array, scipy.sparse.csr_array]:
    """``agree``, the network's typed operator with its rows regrouped by
    vertex, and ``differ``, written as CSR straight from the row-major edge
    list and its column-major order.

    Row i of ``agree`` is the operator's 2C rows (half, i, t) side by side,
    row (half, i, t) in the columns (half C + t) N to (half C + t + 1) N, so
    it holds, for each out-edge i -> j of type t, column (t - 1) N + j, and
    for each in-edge h -> i of type t, column (C + t - 1) N + h.  Row
    (t - 1) N + j of ``differ`` holds the h with an edge h -> j whose type
    is not t, and row (C + t - 1) N + h the j with an edge h -> j whose type
    is not t.  Both keep 32-bit indices where the sizes allow, ``agree``
    from the operator.
    """
    n, c, e = net.n_vertices, net.n_types, len(net.src)
    src, dst, types = net.src, net.dst, net.types
    by_vertex = np.arange(2 * c * n).reshape(2, n, c).transpose(1, 0, 2).ravel()
    agree = net._type_operator[by_vertex].reshape((n, 2 * c * n)).tocsr()

    by_dst = np.argsort(dst, kind="stable")
    out_degree = np.bincount(src, minlength=n)
    in_degree = np.bincount(dst, minlength=n)
    row_sizes = np.concatenate([
        in_degree - np.bincount((types - 1) * n + dst, minlength=c * n).reshape(c, n),
        out_degree - np.bincount((types - 1) * n + src, minlength=c * n).reshape(c, n)])
    index = _index_dtype(2 * c * n, n, 2 * e * (c - 1))
    indptr = np.zeros(2 * c * n + 1, dtype=index)
    np.cumsum(row_sizes, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=index)
    at = 0
    for ends, typed in ((src[by_dst], types[by_dst]), (dst, types)):
        for t in range(1, c + 1):
            kept = ends[typed != t]
            indices[at:at + len(kept)] = kept
            at += len(kept)
    differ = scipy.sparse.csr_array((np.ones(len(indices)), indices, indptr), shape=(2 * c * n, n))
    return agree, differ


def kmedoid_init(distances, n_clusters: int, seed: int) -> np.ndarray:
    """Hard N x K responsibility matrix from k-medoids on the discordance.

    ``distances`` is the network's :func:`distance_matrix`, as it returns it,
    or any square array of the same counts.  It is read, never written, and
    only through products ``distances @ v`` with thin matrices, so one
    discordance serves every initialization.

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
    round's assignment.  The distances to the centers, which only an empty
    cluster reads after the first assignment, come from one product with
    the centers' indicator (the discordance is symmetric), made for the
    first assignment and in rounds that have an empty cluster.  The sums are
    integers below 2**53, so they are exact and the tie-breaking above is
    unaffected.

    When ``n_clusters`` exceeds the number of vertices, every vertex becomes
    a center and the surplus clusters stay empty.
    """
    n_clusters, seed = _count(n_clusters, "n_clusters"), _count(seed, "seed", 0)
    shape = np.shape(distances)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"distances must be a square matrix, got shape {shape}")
    d = (distances if isinstance(distances, _Factored)
         else np.asarray(distances, dtype=np.float64))
    n = shape[0]
    if n == 0:
        return np.zeros((0, n_clusters))
    k_used = min(n_clusters, n)
    rng = np.random.default_rng(seed)
    centers = rng.choice(n, size=k_used, replace=False)
    cost = _to_centers(d, centers)
    sums, sizes = _cluster_sums(d, cost.argmin(axis=1), k_used)
    clusters = np.arange(k_used)
    seen, history = {}, []
    for t in range(MAX_MEDOID_ROUNDS):
        if sizes.all():
            cost = sums / sizes
        else:
            # an empty cluster is scored by its center's distances
            if t:
                cost = _to_centers(d, centers)
            filled = sizes > 0
            cost[:, filled] = sums[:, filled] / sizes[filled]
        assign = cost.argmin(axis=1)
        sums, sizes = _cluster_sums(d, assign, k_used)
        within = np.where(assign[:, None] == clusters, sums, np.inf)
        centers = np.where(sizes > 0, within.argmin(axis=0), centers)
        t0 = seen.setdefault(centers.tobytes() + assign.tobytes(), t)
        if t0 < t:
            assign = history[t0 + (MAX_MEDOID_ROUNDS - 1 - t0) % (t - t0)]
            break
        history.append(assign)

    tau = np.zeros((n, n_clusters))
    tau[np.arange(n), assign] = 1.0
    return tau


def _to_centers(d, centers: np.ndarray) -> np.ndarray:
    """Distance from every vertex to each center (N x K), as the product of
    the symmetric ``d`` with the centers' indicator."""
    pick = np.zeros((d.shape[0], len(centers)))
    pick[centers, np.arange(len(centers))] = 1.0
    return d @ pick


def _cluster_sums(d, assign: np.ndarray, n_clusters: int):
    """Summed distance from every vertex to each cluster's members (N x K),
    and the cluster sizes, from one product with the assignment indicator."""
    n = len(assign)
    onehot = np.zeros((n, n_clusters))
    onehot[np.arange(n), assign] = 1.0
    return d @ onehot, np.bincount(assign, minlength=n_clusters)
