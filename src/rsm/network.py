"""Directed networks with typed edges and a known vertex partition.

The central data structure is :class:`TypedNetwork`.  Edges are stored as an
edge list: three equal-length int64 arrays ``src``, ``dst`` and ``types``,
one entry per present edge i -> j (i != j) in row-major order, with the
edge's type in ``types``.  Every vertex additionally carries an observed
subgraph label (0-indexed in memory; file formats are 1-indexed, see
:mod:`rsm.io`).  The :attr:`TypedNetwork.edge_types` property is the one
dense N x N expansion of the edge list here; everything else in the library
(the sparse operators of :mod:`rsm.inference`, the k-medoid discordance of
:mod:`rsm.medoids`) reads the edge list itself.

A :class:`TypedNetwork` is valid by construction: every edge type lies in
``1..n_types`` and every subgraph label in ``0..n_subgraphs - 1``.
:func:`validate_network` holds that rule; the constructor refuses a network
it finds violations in, and code that takes a network checks it no further.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _readonly(arr: np.ndarray, dtype=None) -> np.ndarray:
    """Return a read-only copy of ``arr``, optionally cast to ``dtype``."""
    out = np.array(arr, dtype=dtype, copy=True)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, init=False)
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
    read-only row-major arrays ``src``, ``dst`` and ``types``; the
    :attr:`edge_types` property rebuilds the matrix from them.

    Raises ValueError for inconsistent shapes, counts below 1, types that
    are not int64 integers, and for the violations :func:`validate_network`
    reports (an off-diagonal type outside ``0..n_types``, a label outside
    ``0..n_subgraphs - 1``), as ``"invalid network: "`` followed by them.
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
        if x.size and not np.issubdtype(x.dtype, np.integer):
            # NaN, inf and values past int64 fail before the cast, which
            # would warn about them
            if not (np.all(np.abs(x) < 2.0 ** 63) and np.all(x == x.astype(np.int64))):
                raise ValueError("edge_types must contain integers")
        sub = np.asarray(subgraph_of)
        if sub.ndim != 1 or sub.shape[0] != x.shape[0]:
            raise ValueError(
                f"subgraph_of must be a length-{x.shape[0]} vector, got shape {sub.shape}"
            )
        if n_types < 1:
            raise ValueError(f"n_types must be >= 1, got {n_types}")
        if n_subgraphs < 1:
            raise ValueError(f"n_subgraphs must be >= 1, got {n_subgraphs}")
        present = x != 0
        np.fill_diagonal(present, False)
        src, dst = np.nonzero(present)
        for name, value in (("src", src), ("dst", dst), ("types", x[src, dst]),
                            ("subgraph_of", sub)):
            object.__setattr__(self, name, _readonly(value, np.int64))
        object.__setattr__(self, "n_vertices", x.shape[0])
        object.__setattr__(self, "n_types", n_types)
        object.__setattr__(self, "n_subgraphs", n_subgraphs)
        report = validate_network(self)
        if not report.ok:
            raise ValueError("invalid network: " + "; ".join(report.violations))

    @property
    def edge_types(self) -> np.ndarray:
        """The N x N type matrix (0 where absent, zero diagonal), rebuilt
        from the edge list on every access and read-only."""
        x = np.zeros((self.n_vertices, self.n_vertices), dtype=np.int64)
        x[self.src, self.dst] = self.types
        x.flags.writeable = False
        return x

    def __repr__(self) -> str:
        return (
            f"TypedNetwork(n_vertices={self.n_vertices}, n_edges={len(self.src)}, "
            f"n_types={self.n_types}, n_subgraphs={self.n_subgraphs})"
        )


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate_network`: hard violations plus warnings."""

    violations: tuple[str, ...] = ()
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_network(net: TypedNetwork) -> ValidationReport:
    """Check label and type ranges of a network.

    Violations (reject): an edge type outside ``0..n_types``, or a subgraph
    label outside ``0..n_subgraphs - 1``; :class:`TypedNetwork` refuses a
    network with any.  Warnings (accept): a subgraph with no vertices.
    """
    violations: list[str] = []
    warnings: list[str] = []

    bad = np.nonzero((net.types < 0) | (net.types > net.n_types))[0]
    for e in bad[:20]:
        violations.append(
            f"edge type {net.types[e]} at ({net.src[e]}, {net.dst[e]}) "
            f"outside 0..{net.n_types}"
        )
    if len(bad) > 20:
        violations.append(f"... and {len(bad) - 20} more edge-type violations")

    sub = net.subgraph_of
    bad_sub = np.nonzero((sub < 0) | (sub >= net.n_subgraphs))[0]
    for i in bad_sub[:20]:
        violations.append(
            f"subgraph label {sub[i]} at vertex {i} outside 0..{net.n_subgraphs - 1}"
        )
    if len(bad_sub) > 20:
        violations.append(f"... and {len(bad_sub) - 20} more subgraph-label violations")

    counts = np.bincount(sub[(sub >= 0) & (sub < net.n_subgraphs)], minlength=net.n_subgraphs)
    for s in np.nonzero(counts == 0)[0]:
        warnings.append(f"subgraph {s} has no vertices")

    return ValidationReport(tuple(violations), tuple(warnings))
