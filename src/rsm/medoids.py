"""Hard initialization of cluster responsibilities via k-medoids.

Vertices are compared with a discordance count: for each third vertex h that
both i and j point to, a disagreement in edge type counts 1, and likewise for
each h pointing to both.  Edges that are not present on both sides contribute
nothing, so the measure only reacts to differently-typed shared connections.

The discordance depends on the network alone, so :func:`kmedoid_init` takes
it as its input: :func:`rsm.inference.fit` builds it once with
:func:`distance_matrix` for every restart, and
:func:`rsm.selection.select_k` once for every candidate K.  It is a product
through the network's typed operator
(:attr:`~rsm.network.TypedNetwork._type_operator`, which the VB-EM sweep
reads too): D = opᵀ Q op, where Q gives each row of a (half, vertex) group
of the operator's C type rows the sum of the group's other C - 1 rows.  On
a sparse network it stays that product, which :func:`kmedoid_init` reads
only through products with thin matrices, so time grows with the edge count
and nothing but Q, of O(N C²) entries, is held beside the operator.
Only on a network dense enough for the all-pairs array to be the cheaper
form is it multiplied out.

The k-medoid loop has one exit: its first repeated (centers, assignment) state.
"""

from __future__ import annotations

import numpy as np
import scipy  # scipy.sparse loads on first use, not at `import rsm`

from .network import TypedNetwork, _count, _csr_bytes, _index_dtype, _refuse_past_memory

# Cap on assignment/medoid alternations.  kmedoid_init stops at a run's first
# repeated state and returns the state the cap reaches; at K >= 2 on the paper's
# scenario networks, four runs in ten cycle, nearly all with period 2.
MAX_MEDOID_ROUNDS = 50


class _Factored:
    """The discordance as the product ``opᵀ (others (op v))``, never
    multiplied out: ``op`` is the network's typed operator, held, not
    copied, and ``others`` the (2 N C)-square selector I ⊗ (J - I), whose
    row (half, v, t) sums the operator's rows (half, v, c), c != t.
    :meth:`toarray` forms the all-pairs array."""

    def __init__(self, op: scipy.sparse.csr_array, n_types: int):
        self.op, self.n_types = op, n_types
        self.op_t = op.T  # a view of the same arrays
        self.others = _others(op.shape[1], n_types)

    @property
    def shape(self) -> tuple[int, int]:
        return self.op.shape[1], self.op.shape[1]

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.op_t @ (self.others @ (self.op @ v))

    def toarray(self) -> np.ndarray:
        return _array(self.op, self.n_types)


def _keeps_factors(n_vertices: int, n_edges: int, n_types: int) -> bool:
    """Whether the discordance stays factored: when 6CE < N².  Each product
    through the operator reads its 2E entries twice and the selector's
    2NC(C - 1) once, where the array reads N² entries; the rule, measured
    for an older form that read 2CE entries per product
    (BENCH_discordance.json), is kept so that no network changes form."""
    return 6 * n_types * n_edges < n_vertices * n_vertices


def _block_width(n: int, c: int) -> int:
    """Columns per block of :func:`_array`, so that a block's temporaries,
    8 (2C + 4) N bytes per column, stay within the array's 8N² bytes
    wherever N >= 2C + 4."""
    return max(1, n // (2 * c + 4))


def distance_matrix(net: TypedNetwork) -> _Factored | np.ndarray:
    """All-pairs discordance, as a product through the network's typed
    operator or as a float64 array.

    Let ``op`` be the network's
    :attr:`~rsm.network.TypedNetwork._type_operator`, whose rows (half, v, t)
    hold vertex v's out-neighbours (half 0) and in-neighbours (half 1) of
    type t, and Q the selector that replaces each row of a (half, v) group
    by the sum of the group's rows of the other C - 1 types.  Then
    D = opᵀ Q op counts the shared out- and in-neighbours whose edge types
    differ.  This call builds the operator if nothing has yet, and the
    network keeps it.  Nothing cancels, so every entry is an exact integer
    of at most 2(N - 2), and every product adds exact integers.

    A network with 6CE < N² is sparse enough that products through the
    operator cost less than through the array; it gets a private product
    object with ``shape``, ``d @ v`` and ``toarray()``, which
    :func:`kmedoid_init` reads.  It holds the operator and Q, 2NC(C - 1)
    ones, and nothing that grows with E.  Any other network gets the
    all-pairs float64 array, built a block of columns at a time
    (:func:`_array`).  The bytes of the chosen form are counted before
    anything is allocated: the operator, as CSR, whether or not the network
    holds it already; and Q, or the array and one block's temporaries.  A
    ValueError naming N and that size refuses a form that would not fit in
    the machine's physical memory.
    """
    n, c, e = net.n_vertices, net.n_types, len(net.src)
    factored = _keeps_factors(n, e, c)
    size = _csr_bytes(2 * c * n, n, 2 * e)
    if factored:
        size += _csr_bytes(2 * c * n, 2 * c * n, 2 * c * n * (c - 1))
    else:
        size += 8 * n * n + 8 * (2 * c + 4) * n * _block_width(n, c)
    _refuse_past_memory(size, f"the discordance matrix of a {n}-vertex network")
    if factored:
        return _Factored(net._type_operator, c)
    return _array(net._type_operator, c)


def _others(n: int, c: int) -> scipy.sparse.csr_array:
    """The selector I_{2N} ⊗ (J - I)_C as CSR: row (half, v, t) holds a 1
    in the columns (half, v, c), c != t, in ascending order, with 32-bit
    indices where the sizes allow."""
    rows = 2 * n * c
    index = _index_dtype(rows, rows, rows * (c - 1))
    other_types = np.array([[u for u in range(c) if u != t] for t in range(c)],
                           dtype=index).reshape(c, c - 1)
    indices = (np.arange(0, rows, c, dtype=index)[:, None, None] + other_types).ravel()
    indptr = np.arange(rows + 1, dtype=index) * (c - 1)
    return scipy.sparse.csr_array((np.ones(len(indices)), indices, indptr), shape=(rows, rows))


def _array(op: scipy.sparse.csr_array, c: int) -> np.ndarray:
    """The all-pairs discordance opᵀ Q op as a float64 array, a block of
    :func:`_block_width` columns J at a time: ``opᵀ @ y`` with y = Q op[:, J]
    written dense, in one buffer that every block reuses."""
    n, op_t = op.shape[1], op.T
    d = np.empty((n, n))
    width = _block_width(n, c)
    buffer = np.empty(2 * n * c * width)
    for start in range(0, n, width):
        b = min(width, n - start)
        y = buffer[:2 * n * c * b].reshape(2, n, c, b)
        y.fill(0.0)
        for half in (0, 1):
            _scatter_others(y, op, half, start)
        d[:, start:start + b] = op_t @ y.reshape(2 * n * c, b)
    return d


def _scatter_others(y: np.ndarray, op: scipy.sparse.csr_array, half: int, start: int) -> None:
    """Write into the zeroed y, shaped (2, N, C, b), the entries of
    Q op[:, J] that come from the operator's rows (half, j, t) of the
    vertices j in J = start .. start + b - 1.

    Entry ((1 - half, x, u), j) of op[:, J] is the operator's entry
    ((half, j, u), x), so each entry ((half, j, t), x) of those rows puts
    ones across the C types of row group (1 - half, x), in y's column
    j - start, less its own type t.
    The index temporaries, four of at most bN entries each, are freed on
    return."""
    _, n, c, b = y.shape
    first = (half * n + start) * c
    ptr = op.indptr[first:first + b * c + 1]
    x = op.indices[ptr[0]:ptr[-1]].astype(np.intp)
    j, t = np.divmod(np.repeat(np.arange(b * c), ptr[1:] - ptr[:-1]), c)
    y[1 - half, x, :, j] = 1.0
    y[1 - half, x, t, j] = 0.0


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
