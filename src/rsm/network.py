"""Directed networks with typed edges and a known vertex partition.

The central data structure is :class:`TypedNetwork`.  Edges are stored as an
edge list: three equal-length int64 arrays ``src``, ``dst`` and ``types``,
one entry per present edge i -> j (i != j) in row-major order, with the
edge's type in ``types``.  Every vertex additionally carries an observed
subgraph label (0-indexed in memory; file formats are 1-indexed, see
:mod:`rsm.io`).

A network is built by :meth:`TypedNetwork.from_edges` from an edge list in
any order, which is how the file reader of :mod:`rsm.io` and the sampler of
:mod:`rsm.generate` build theirs, or by the constructor from an N x N type
matrix, which finds the matrix's off-diagonal nonzeros and takes the same
path.  The :attr:`TypedNetwork.edge_types` property is the one dense N x N
expansion of the edge list here.  The one other structure built from it is
the sparse ``TypedNetwork._type_operator``, built once per network and
read by both the VB-EM updates of :mod:`rsm.inference` and the k-medoid
discordance of :mod:`rsm.medoids`.  The dense expansion, the discordance and
the update loop count the bytes they will need first, and pass them to one
memory rule, ``_refuse_past_memory``, which refuses with a ValueError a call
that needs more than the machine's physical memory, before it allocates.

Every integer vector that enters the library (edge lists, labels, subgraph
sizes) passes one rule, ``_int_vector``: a vector (of a known length, where
there is one) of int64 integers, and every count and seed passes ``_count``:
an integer of at least a minimum, kept as a Python ``int``.  Both refuse
anything else with a ValueError naming the argument.  A :class:`TypedNetwork`
is valid by construction: every edge type lies in ``1..n_types`` and every
subgraph label in ``0..n_subgraphs - 1``.  The one construction path refuses
a network that breaks a rule, naming the first offender, and code that takes
a network checks it no further.  :func:`validate_network` reports what a
valid network may still hold: empty subgraphs.
"""

from __future__ import annotations

import functools
import operator
import os
from dataclasses import dataclass

import numpy as np
import scipy  # scipy.sparse loads on first use, not at `import rsm`


def _readonly(arr: np.ndarray, dtype=None) -> np.ndarray:
    """Return a read-only copy of ``arr``, optionally cast to ``dtype``."""
    out = np.array(arr, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


def _check_integers(values: np.ndarray, name: str) -> None:
    """Refuse an array whose entries are not all int64 integers."""
    if values.size and not np.can_cast(values.dtype, np.int64):
        # a uint64 past int64 wraps in the cast and compares unequal; NaN,
        # inf and floats past int64 fail before it, which would warn
        if not ((values.dtype.kind == "u" or np.all(np.abs(values) < 2.0 ** 63))
                and np.all(values == values.astype(np.int64))):
            raise ValueError(f"{name} must contain integers")


def _int_vector(values, name: str, length: int | None = None) -> np.ndarray:
    """``values`` as an int64 vector, copied only if its dtype differs; any
    other shape and a non-integer entry are refused, naming ``name``."""
    arr = np.asarray(values)
    if arr.ndim != 1 or length not in (None, len(arr)):
        size = "" if length is None else f"length-{length} "
        raise ValueError(f"{name} must be a {size}vector, got shape {arr.shape}")
    _check_integers(arr, name)
    return arr.astype(np.int64, copy=False)


def _count(value, name: str, minimum: int = 1) -> int:
    """``value`` as a Python int >= ``minimum``, or a ValueError naming ``name``."""
    try:
        count = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {count}")
    return count


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


# A call that needs more than this is refused before it allocates anything.
PHYSICAL_MEMORY = _physical_memory()


def _refuse_past_memory(size: int, what: str) -> None:
    """Refuse ``what``, which needs ``size`` bytes, with a ValueError naming
    both when that is more than the machine's physical memory."""
    if PHYSICAL_MEMORY is not None and size > PHYSICAL_MEMORY:
        raise ValueError(
            f"{what} takes {size / 2 ** 30:.1f} GiB ({size} bytes), more than the "
            f"{PHYSICAL_MEMORY / 2 ** 30:.1f} GiB of physical memory")


def _index_dtype(*sizes: int) -> type:
    """The index type scipy keeps for a sparse array with these extents and
    nonzero count."""
    return np.int32 if max(sizes, default=0) <= np.iinfo(np.int32).max else np.int64


def _csr_bytes(n_rows: int, n_cols: int, nnz: int) -> int:
    """Bytes of a float64 CSR array: values, column indices and row pointers."""
    index = np.dtype(_index_dtype(n_rows, n_cols, nnz)).itemsize
    return (8 + index) * nnz + index * (n_rows + 1)


def _refuse_outside(labels: np.ndarray, n: int, what: str, suffix: str = "") -> None:
    """Raise naming the first label outside ``0..n - 1`` and its vertex, if any."""
    bad = (labels < 0) | (labels >= n)
    if bad.any():
        i = np.argmax(bad)
        raise ValueError(f"{what} {labels[i]} at vertex {i} outside 0..{n - 1}{suffix}")


def _refuse_first(src: np.ndarray, dst: np.ndarray, bad: np.ndarray, what: str) -> None:
    """Raise naming the first edge flagged in ``bad``, if any."""
    if bad.any():
        e = np.argmax(bad)
        raise ValueError(f"edge ({src[e]}, {dst[e]}) {what}")


def _row_order(keys) -> np.ndarray | None:
    """None when the rows of ``keys``, one column per key field, most
    significant first, strictly increase in lexicographic order, as in a
    row-major edge list; otherwise their stable order by ``np.lexsort``."""
    after = keys[-1][1:] > keys[-1][:-1]
    for column in keys[-2::-1]:
        after = (column[1:] > column[:-1]) | ((column[1:] == column[:-1]) & after)
    return None if after.all() else np.lexsort(keys[::-1])


@dataclass(frozen=True, init=False, eq=False)
class TypedNetwork:
    """A directed network whose present edges carry a categorical type.

    Parameters
    ----------
    edge_types:
        N x N integer matrix.  ``edge_types[i, j]`` is the type (1..n_types)
        of the edge from i to j, or 0 if no edge exists.  Diagonal entries
        are dropped.
    subgraph_of:
        Length-N integer vector of observed subgraph labels in
        ``{0, ..., n_subgraphs - 1}``.
    n_types:
        Number of edge types C (>= 1).
    n_subgraphs:
        Number of subgraphs S (>= 1).

    The network keeps the nonzero off-diagonal entries of ``edge_types`` as
    read-only row-major arrays ``src``, ``dst`` and ``types``, built as by
    :meth:`from_edges`; the :attr:`edge_types` property rebuilds the matrix
    from them on every access.  The sparse ``_type_operator`` is built
    from them once, at its first access, and kept for the network's
    lifetime: every fit, update and discordance on the network reads that
    one copy.

    Raises ValueError for inconsistent shapes, a count that is not an
    integer >= 1, types or labels that are not int64 integers, and for an
    off-diagonal type outside ``0..n_types`` or a label outside
    ``0..n_subgraphs - 1``, as ``"invalid network: "`` followed by the first
    such fault (types before labels).
    """

    src: np.ndarray
    dst: np.ndarray
    types: np.ndarray
    subgraph_of: np.ndarray
    n_vertices: int
    n_types: int
    n_subgraphs: int

    def __init__(self, edge_types, subgraph_of, n_types: int, n_subgraphs: int):
        x = np.asarray(edge_types)
        if x.ndim != 2 or x.shape[0] != x.shape[1]:
            raise ValueError(f"edge_types must be a square matrix, got shape {x.shape}")
        _check_integers(x, "edge_types")
        present = x != 0
        np.fill_diagonal(present, False)
        src, dst = np.nonzero(present)
        self._set_edges(x.shape[0], src, dst, x[src, dst], subgraph_of,
                        n_types, n_subgraphs)

    @classmethod
    def from_edges(cls, n_vertices: int, src, dst, types, subgraph_of,
                   n_types: int, n_subgraphs: int) -> TypedNetwork:
        """Build a network from its edge list, in any order.

        ``src``, ``dst`` and ``types`` are equal-length integer vectors: the
        0-indexed endpoints of each present edge i -> j and its type in
        ``1..n_types``.  The edges are sorted row-major.  A vertex outside
        ``0..n_vertices - 1``, a self-loop, a pair listed twice and a type
        of 0 are refused with a ValueError naming the pair; everything
        else is refused as by the dense constructor.
        """
        net = cls.__new__(cls)
        net._set_edges(n_vertices, src, dst, types, subgraph_of, n_types, n_subgraphs)
        return net

    def _set_edges(self, n, src, dst, types, subgraph_of, n_types, n_subgraphs):
        """The one construction path: check, sort and store the edge list;
        each rule names the first edge or vertex that breaks it."""
        n = _count(n, "n_vertices", 0)
        n_types, n_subgraphs = _count(n_types, "n_types"), _count(n_subgraphs, "n_subgraphs")
        edges = [np.asarray(v) for v in (src, dst, types)]
        if any(v.ndim != 1 or v.shape != edges[0].shape for v in edges):
            raise ValueError("src, dst and types must be equal-length vectors, got "
                             f"shapes {', '.join(str(v.shape) for v in edges)}")
        src, dst, types = map(_int_vector, edges, ("src", "dst", "types"))
        sub = _int_vector(subgraph_of, "subgraph_of", n)
        _refuse_first(src, dst, (src < 0) | (src >= n) | (dst < 0) | (dst >= n),
                      f"has a vertex outside 0..{n - 1}")
        _refuse_first(src, dst, src == dst, "is a self-loop")
        order = _row_order((src, dst))
        if order is not None:
            src, dst, types = src[order], dst[order], types[order]
            _refuse_first(src[1:], dst[1:], (src[1:] == src[:-1]) & (dst[1:] == dst[:-1]),
                          "is listed twice")
        _refuse_first(src, dst, types == 0, "has type 0, which marks an absent pair")
        bad = (types < 0) | (types > n_types)
        if bad.any():
            e = np.argmax(bad)
            raise ValueError(f"invalid network: edge type {types[e]} at "
                             f"({src[e]}, {dst[e]}) outside 0..{n_types}")
        _refuse_outside(sub, n_subgraphs, "invalid network: subgraph label")
        for name, value in (("src", src), ("dst", dst), ("types", types),
                            ("subgraph_of", sub)):
            object.__setattr__(self, name, _readonly(value))
        object.__setattr__(self, "n_vertices", n)
        object.__setattr__(self, "n_types", n_types)
        object.__setattr__(self, "n_subgraphs", n_subgraphs)

    @property
    def edge_types(self) -> np.ndarray:
        """The N x N type matrix (0 where absent, zero diagonal), rebuilt
        from the edge list on every access and read-only.  Its 8N² bytes
        are counted first: a matrix larger than physical memory is refused
        with a ValueError before it is allocated."""
        n = self.n_vertices
        _refuse_past_memory(8 * n * n, f"the type matrix of a {n}-vertex network")
        x = np.zeros((n, n), dtype=np.int64)
        x[self.src, self.dst] = self.types
        x.flags.writeable = False
        return x

    @functools.cached_property
    def _type_operator(self) -> scipy.sparse.csr_array:
        """(2 N C) x N sparse matrix of the typed out- and in-neighbours, its
        rows ordered (half, vertex, type), built from the edge list on first
        access and kept, read-only, for the network's lifetime.

        Edge i -> j of type c puts a 1 at (i C + c - 1, j) in the upper half
        and at (N C + j C + c - 1, i) in the lower half, so one product with
        an N x K tau is, read as 2 x N x (C K), the sums over out-neighbours
        and over in-neighbours.  Within a row the columns ascend, as in two
        separate operators, so each sum adds the same terms in the same
        order.  The VB-EM updates of :mod:`rsm.inference` read it, and the
        k-medoid discordance of :mod:`rsm.medoids` regroups its rows into its
        two factors.  It holds 2E float64 ones with their column indices, and
        2 N C + 1 row pointers, indexed in 32 bits where the sizes allow:
        5.3 MB at E = 200 000, N = 20 000 and C = 3.
        """
        n, c, types = self.n_vertices, self.n_types, self.types - 1
        index = _index_dtype(2 * c * n, n, 2 * len(types))
        rows = np.concatenate([self.src * c + types, c * n + self.dst * c + types]).astype(index)
        cols = np.concatenate([self.dst, self.src]).astype(index)
        op = scipy.sparse.csr_array((np.ones(len(rows)), (rows, cols)), shape=(2 * c * n, n))
        for arr in (op.data, op.indices, op.indptr):
            arr.flags.writeable = False
        return op

    def __repr__(self) -> str:
        return (
            f"TypedNetwork(n_vertices={self.n_vertices}, n_edges={len(self.src)}, "
            f"n_types={self.n_types}, n_subgraphs={self.n_subgraphs})"
        )


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_network`.  ``violations`` is always empty,
    since a built network has none, and ``ok`` always true; both stay for
    callers that still read them."""

    violations: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_network(net: TypedNetwork) -> ValidationReport:
    """Warn about each subgraph with no vertices.

    A network's types and labels are checked when it is built, so the
    report holds warnings only.
    """
    counts = np.bincount(net.subgraph_of, minlength=net.n_subgraphs)
    return ValidationReport(warnings=tuple(
        f"subgraph {s} has no vertices" for s in np.nonzero(counts == 0)[0]))
