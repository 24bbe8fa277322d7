"""Inputs and reference computations made apart from the ``rsm`` package.

Everything here uses numpy only: a seeded sparse planted-partition sampler,
writers for the ``rsm v1`` text formats, a strict parser for them, and a
pair-counting adjusted Rand index.  The workloads feed the program files
written here and check its outputs with the parser and the index below, so
a fault in the program's own readers, writers or metrics cannot hide itself.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_HEADER = re.compile(r"rsm v1 N=(\d+) S=(\d+) C=(\d+)")


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed for one input, fixed by the workload seed and the keys."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


@dataclass(frozen=True)
class Planted:
    """A planted partition with block-constant edge presence.

    Vertices are split into ``n_subgraphs`` contiguous subgraphs of equal
    size and draw a cluster uniformly from ``n_clusters``.  An ordered pair
    (i, j), i != j, is an edge with probability ``p_within`` when both lie in
    the same subgraph and ``p_between`` otherwise; an edge takes its type
    from ``types_within`` when both endpoints share a cluster and from
    ``types_between`` otherwise.
    """

    n_vertices: int
    n_subgraphs: int
    n_clusters: int
    p_within: float
    p_between: float
    types_within: tuple[float, ...]
    types_between: tuple[float, ...]

    @property
    def n_types(self) -> int:
        return len(self.types_within)

    def subgraph_sizes(self) -> np.ndarray:
        base, extra = divmod(self.n_vertices, self.n_subgraphs)
        return np.array([base + (s < extra) for s in range(self.n_subgraphs)])

    def gamma(self) -> np.ndarray:
        g = np.full((self.n_subgraphs, self.n_subgraphs), self.p_between)
        np.fill_diagonal(g, self.p_within)
        return g


@dataclass(frozen=True)
class Sample:
    """Edges as (src, dst, type) arrays sorted row-major, all 0-indexed
    except the types, which keep their 1..C coding."""

    n_vertices: int
    n_subgraphs: int
    n_types: int
    src: np.ndarray
    dst: np.ndarray
    types: np.ndarray
    subgraph_of: np.ndarray
    labels: np.ndarray

    @property
    def n_edges(self) -> int:
        return int(self.src.shape[0])


def ordered_pairs(sizes: np.ndarray) -> np.ndarray:
    """Ordered vertex pairs i != j per subgraph block (r, s)."""
    sizes = np.asarray(sizes, dtype=np.int64)
    return np.outer(sizes, sizes) - np.diag(sizes)


def sample_planted(spec: Planted, seed: int) -> Sample:
    """Draw one network in O(E) memory: per block, a binomial edge count,
    then that many distinct pairs without replacement."""
    rng = np.random.default_rng(seed)
    sizes = spec.subgraph_sizes()
    starts = np.concatenate([[0], np.cumsum(sizes)])
    subgraph_of = np.repeat(np.arange(spec.n_subgraphs), sizes)
    labels = rng.integers(spec.n_clusters, size=spec.n_vertices)
    gamma = spec.gamma()
    srcs, dsts = [], []
    for r in range(spec.n_subgraphs):
        for s in range(spec.n_subgraphs):
            n_pairs = int(ordered_pairs(sizes)[r, s])
            m = int(rng.binomial(n_pairs, gamma[r, s]))
            flat = rng.choice(n_pairs, size=m, replace=False)
            if r == s:
                i, j = np.divmod(flat, sizes[s] - 1)
                j = j + (j >= i)
            else:
                i, j = np.divmod(flat, sizes[s])
            srcs.append(starts[r] + i)
            dsts.append(starts[s] + j)
    src = np.concatenate(srcs).astype(np.int64)
    dst = np.concatenate(dsts).astype(np.int64)
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    same = labels[src] == labels[dst]
    probs = np.where(same[:, None], np.asarray(spec.types_within),
                     np.asarray(spec.types_between))
    draws = rng.random(src.shape[0])[:, None]
    types = np.minimum((draws >= np.cumsum(probs, axis=1)).sum(axis=1),
                       spec.n_types - 1) + 1
    return Sample(spec.n_vertices, spec.n_subgraphs, spec.n_types,
                  src, dst, types.astype(np.int64), subgraph_of, labels)


def _write_lines(path, lines) -> None:
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_sample(directory: Path, sample: Sample) -> dict[str, Path]:
    """Write network.txt, partition.txt and true_labels.txt in ``rsm v1`` form."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {name: directory / f"{name}.txt"
             for name in ("network", "partition", "true_labels")}
    header = f"rsm v1 N={sample.n_vertices} S={sample.n_subgraphs} C={sample.n_types}"
    _write_lines(paths["network"], [header] + [
        f"{i + 1} {j + 1} {c}"
        for i, j, c in zip(sample.src.tolist(), sample.dst.tolist(),
                           sample.types.tolist())])
    _write_lines(paths["partition"], [f"{v + 1} {s + 1}" for v, s in
                                      enumerate(sample.subgraph_of.tolist())])
    _write_lines(paths["true_labels"], [f"{v + 1} {k + 1}" for v, k in
                                        enumerate(sample.labels.tolist())])
    return paths


class ParseError(ValueError):
    """A file the program wrote breaks the documented format."""


def read_network(path) -> tuple[int, int, int, np.ndarray]:
    """Parse a network file into (N, S, C, edges) with edges an E x 3 array
    of 0-indexed src, dst and 1-indexed type, refusing anything the format
    forbids: a bad header, out-of-range fields, self-loops, duplicates, and
    lines out of row-major order."""
    header, _, body = Path(path).read_text(encoding="utf-8").partition("\n")
    match = _HEADER.fullmatch(header)
    if match is None:
        raise ParseError(f"{path}: bad header {header!r}")
    n, s, c = (int(g) for g in match.groups())
    fields = body.split()
    if len(fields) % 3:
        raise ParseError(f"{path}: edge lines must have three fields")
    edges = np.array(fields, dtype=np.int64).reshape(-1, 3)
    if body.count("\n") != edges.shape[0]:
        raise ParseError(f"{path}: expected one edge per line")
    edges[:, :2] -= 1
    src, dst, typ = edges.T
    if edges.size and (src.min() < 0 or dst.min() < 0
                       or max(src.max(), dst.max()) >= n):
        raise ParseError(f"{path}: vertex outside 1..{n}")
    if edges.size and (typ.min() < 1 or typ.max() > c):
        raise ParseError(f"{path}: edge type outside 1..{c}")
    if np.any(src == dst):
        raise ParseError(f"{path}: self-loop")
    key = src * n + dst
    if np.any(np.diff(key) <= 0):
        raise ParseError(f"{path}: duplicate edge or lines not in row-major order")
    return n, s, c, edges


def read_vertex_values(path, n_vertices: int) -> np.ndarray:
    """Parse a ``vertex value`` file that lists vertices 1..N in order;
    returns the 0-indexed values."""
    pairs = np.array(Path(path).read_text(encoding="utf-8").split(),
                     dtype=np.int64).reshape(-1, 2)
    if not np.array_equal(pairs[:, 0], np.arange(1, n_vertices + 1)):
        raise ParseError(f"{path}: expected vertices 1..{n_vertices} in order")
    if pairs.size and pairs[:, 1].min() < 1:
        raise ParseError(f"{path}: values must be >= 1")
    return pairs[:, 1] - 1


def ari(labels_a, labels_b) -> float:
    """Adjusted Rand index by counting agreeing vertex pairs in the
    contingency table (1.0 when both partitions are trivial)."""
    a = np.unique(np.asarray(labels_a), return_inverse=True)[1].ravel()
    b = np.unique(np.asarray(labels_b), return_inverse=True)[1].ravel()
    table = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(table, (a, b), 1.0)

    def pairs(m):
        return float((m * (m - 1) / 2).sum())

    both = pairs(table)
    rows, cols = pairs(table.sum(axis=1)), pairs(table.sum(axis=0))
    expected = rows * cols / pairs(np.array([a.size]))
    top = (rows + cols) / 2
    return 1.0 if top == expected else (both - expected) / (top - expected)


def bound_drop(trace) -> float:
    """Largest decrease between consecutive bound values (0 if none)."""
    steps = np.diff(np.asarray(trace, dtype=np.float64))
    return float(max(0.0, -steps.min())) if steps.size else 0.0
