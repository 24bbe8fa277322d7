"""Plain-text file formats for networks, partitions, labels, and results.

All files are UTF-8 with LF line endings and ``.`` as the decimal mark.
Vertices, subgraphs, clusters, and types are 1-indexed on disk; in-memory
arrays are 0-indexed (types keep their 1..C coding, 0 meaning absent).  The
conversion happens here and nowhere else.

Network file::

    rsm v1 N=<n> S=<s> C=<c>
    <src> <dst> <type>        # one line per present edge, row-major

Partition and label files are ``<vertex> <subgraph>`` and
``<vertex> <cluster>`` lines, one per vertex.

A network file is read into an edge list with one numpy pass over its
tokens, and :func:`load_network` builds the network with
:meth:`~rsm.network.TypedNetwork.from_edges`, so reading costs grow with the
number of edges; no N x N array is built.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .network import TypedNetwork
from .params import FitResult, RsmParams

_HEADER_RE = re.compile(r"^rsm v1 N=(\d+) S=(\d+) C=(\d+)$")


class FormatError(ValueError):
    """A file does not follow its documented format; the message names the line."""


def _fail(path, lineno: int, message: str) -> None:
    raise FormatError(f"{path}:{lineno}: {message}")


def _data_lines(text: str):
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if line:
            yield lineno, line


def write_network_file(path, net: TypedNetwork) -> None:
    """Write header plus one ``src dst type`` line per edge, row-major."""
    lines = [f"rsm v1 N={net.n_vertices} S={net.n_subgraphs} C={net.n_types}"]
    for i, j, c in zip(net.src.tolist(), net.dst.tolist(), net.types.tolist()):
        lines.append(f"{i + 1} {j + 1} {c}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_network_file(path) -> tuple[int, int, int, np.ndarray, np.ndarray, np.ndarray]:
    """Parse a network file into ``(N, S, C, src, dst, types)``.

    ``src`` and ``dst`` are 0-indexed int64 vectors and ``types`` the int64
    types, one entry per edge line in file order.  The edge lines are
    checked together, with one array per check; when any line is bad, the
    earliest bad line is reported, naming the first rule it breaks of: three
    fields, integers, source and destination in ``1..N``, no self-loop,
    type in ``1..C``, and no pair listed on an earlier line.
    """
    text = Path(path).read_text(encoding="utf-8")
    raw = text.split("\n")
    counts = np.fromiter(map(len, map(str.split, raw)), dtype=np.int64, count=len(raw))
    data = np.flatnonzero(counts)
    if not data.size:
        _fail(path, 1, "missing header line 'rsm v1 N=<n> S=<s> C=<c>'")
    header = raw[data[0]].strip()
    match = _HEADER_RE.match(header)
    if match is None:
        _fail(path, data[0] + 1,
              f"bad header {header!r}, expected 'rsm v1 N=<n> S=<s> C=<c>'")
    n, s, c = (int(g) for g in match.groups())
    if s < 1 or c < 1:
        _fail(path, data[0] + 1, f"S and C must be >= 1, got S={s} C={c}")

    # Each step finds the earliest line breaking its rule and drops the
    # lines from there on, so later steps see well-formed lines only.
    first_bad = len(raw)
    lines = data[1:]
    wrong = np.flatnonzero(counts[lines] != 3)
    if wrong.size:
        first_bad = lines[wrong[0]]
        lines = lines[:wrong[0]]
    # the header is five tokens, and every line before first_bad three
    values = _integers(text.split()[5:5 + 3 * lines.size])
    if values.size < 3 * lines.size:
        first_bad = lines[values.size // 3]
        lines = lines[:values.size // 3]
        values = values[:3 * lines.size]
    src, dst, typ = values.reshape(-1, 3).T
    bad = ((src < 1) | (src > n) | (dst < 1) | (dst > n) | (src == dst)
           | (typ < 1) | (typ > c))
    # among the lines that pass, a repeated pair is blamed on its later line
    ok = np.flatnonzero(~bad)
    order = ok[np.lexsort((dst[ok], src[ok]))]
    repeat = (src[order[1:]] == src[order[:-1]]) & (dst[order[1:]] == dst[order[:-1]])
    bad[order[1:][repeat]] = True
    if bad.any():
        first_bad = lines[np.argmax(bad)]
    if first_bad < len(raw):
        _fail(path, first_bad + 1, _edge_line_problem(raw[first_bad].strip(), n, c))
    return n, s, c, src - 1, dst - 1, typ


def _integers(tokens: list[str]) -> np.ndarray:
    """The int64 values that ``int`` reads from the tokens, up to the first
    token it rejects; a value past int64 reads as 0, outside every range."""
    try:
        return np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError):
        pass
    values = []
    for token in tokens:
        try:
            value = int(token)
        except ValueError:
            break
        values.append(value if -2 ** 63 <= value < 2 ** 63 else 0)
    return np.array(values, dtype=np.int64)


def _edge_line_problem(line: str, n: int, c: int) -> str:
    """The first rule that the edge line ``line`` breaks, as a message; a
    line that breaks none on its own repeats an earlier pair."""
    parts = line.split()
    if len(parts) != 3:
        return f"expected 'src dst type', got {line!r}"
    try:
        src, dst, typ = (int(p) for p in parts)
    except ValueError:
        return f"non-integer field in {line!r}"
    if not 1 <= src <= n:
        return f"source vertex {src} outside 1..{n}"
    if not 1 <= dst <= n:
        return f"destination vertex {dst} outside 1..{n}"
    if src == dst:
        return "self-loops are not allowed"
    if not 1 <= typ <= c:
        return f"edge type {typ} outside 1..{c}"
    return f"duplicate edge {src} -> {dst}"


def write_partition_file(path, net: TypedNetwork) -> None:
    write_labels_file(path, net.subgraph_of)


def _read_pairs(path, n_vertices: int, max_value: int, what: str) -> np.ndarray:
    """Shared reader for ``vertex value`` files covering every vertex once."""
    text = Path(path).read_text(encoding="utf-8")
    values = np.full(n_vertices, -1, dtype=np.int64)
    for lineno, line in _data_lines(text):
        parts = line.split()
        if len(parts) != 2:
            _fail(path, lineno, f"expected 'vertex {what}', got {line!r}")
        try:
            vertex, value = int(parts[0]), int(parts[1])
        except ValueError:
            _fail(path, lineno, f"non-integer field in {line!r}")
        if not 1 <= vertex <= n_vertices:
            _fail(path, lineno, f"vertex {vertex} outside 1..{n_vertices}")
        if not 1 <= value <= max_value:
            _fail(path, lineno, f"{what} {value} outside 1..{max_value}")
        if values[vertex - 1] != -1:
            _fail(path, lineno, f"vertex {vertex} listed twice")
        values[vertex - 1] = value - 1
    missing = np.nonzero(values == -1)[0]
    if missing.size:
        _fail(path, len(text.split("\n")),
              f"no {what} given for vertex {missing[0] + 1}")
    return values


def read_partition_file(path, n_vertices: int, n_subgraphs: int) -> np.ndarray:
    """Parse subgraph labels (0-indexed in the returned array)."""
    return _read_pairs(path, n_vertices, n_subgraphs, "subgraph")


def load_network(network_path, partition_path) -> TypedNetwork:
    """Read a network file and its partition file into one TypedNetwork."""
    n, s, c, src, dst, types = read_network_file(network_path)
    sub = read_partition_file(partition_path, n, s)
    return TypedNetwork.from_edges(n, src, dst, types, sub, n_types=c, n_subgraphs=s)


def write_labels_file(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.int64)
    lines = [f"{i + 1} {labels[i] + 1}" for i in range(labels.shape[0])]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_labels_file(path) -> dict[int, int]:
    """Parse cluster labels into {vertex: label}, both 0-indexed.

    Unlike partitions, label files stand alone (no declared N): any positive
    vertex ids are accepted, each at most once.
    """
    text = Path(path).read_text(encoding="utf-8")
    out: dict[int, int] = {}
    for lineno, line in _data_lines(text):
        parts = line.split()
        if len(parts) != 2:
            _fail(path, lineno, f"expected 'vertex cluster', got {line!r}")
        try:
            vertex, value = int(parts[0]), int(parts[1])
        except ValueError:
            _fail(path, lineno, f"non-integer field in {line!r}")
        if vertex < 1:
            _fail(path, lineno, f"vertex {vertex} outside 1..")
        if value < 1:
            _fail(path, lineno, f"cluster {value} must be >= 1")
        if vertex - 1 in out:
            _fail(path, lineno, f"vertex {vertex} listed twice")
        out[vertex - 1] = value - 1
    if not out:
        _fail(path, 1, "no labels found")
    return out


def read_params_file(path) -> tuple[RsmParams, np.ndarray]:
    """Parse a generator parameter JSON file.

    Schema: an object with ``alpha`` (S x K), ``gamma`` (S x S), ``pi``
    (K x K x C) and ``subgraph_sizes`` (length S, summing to N).  Returns the
    parameters and the contiguous subgraph labels the sizes imply.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise FormatError(f"{path}:1: expected a JSON object")
    missing = [key for key in ("alpha", "gamma", "pi", "subgraph_sizes")
               if key not in data]
    if missing:
        raise FormatError(f"{path}:1: missing keys: {', '.join(missing)}")
    try:
        params = RsmParams(alpha=np.asarray(data["alpha"], dtype=np.float64),
                           gamma=np.asarray(data["gamma"], dtype=np.float64),
                           pi=np.asarray(data["pi"], dtype=np.float64))
    except ValueError as exc:
        raise FormatError(f"{path}:1: {exc}") from exc
    sizes = np.asarray(data["subgraph_sizes"], dtype=np.int64)
    if sizes.ndim != 1 or sizes.shape[0] != params.n_subgraphs:
        raise FormatError(f"{path}:1: subgraph_sizes must list "
                          f"{params.n_subgraphs} sizes")
    if np.any(sizes < 0):
        raise FormatError(f"{path}:1: subgraph sizes must be nonnegative")
    sub = np.repeat(np.arange(params.n_subgraphs), sizes)
    return params, sub


def _format_row(values) -> str:
    return " ".join(f"{v:.6f}" for v in values)


def write_parameter_report(path, result: FitResult) -> None:
    """Posterior-mean parameter tables as structured text (1-indexed headers)."""
    state = result.state
    alpha_mean = state.chi / state.chi.sum(axis=1, keepdims=True)
    gamma_mean = state.a / (state.a + state.b)
    pi_mean = state.xi / state.xi.sum(axis=2, keepdims=True)

    lines = ["alpha: posterior mean cluster mixing, one row per subgraph"]
    for s in range(alpha_mean.shape[0]):
        lines.append(f"  subgraph {s + 1}: {_format_row(alpha_mean[s])}")
    lines.append("gamma: posterior mean edge presence probability, with natural log")
    for r in range(gamma_mean.shape[0]):
        for s in range(gamma_mean.shape[1]):
            lines.append(f"  subgraph {r + 1} -> {s + 1}: "
                         f"{gamma_mean[r, s]:.6f} (log {np.log(gamma_mean[r, s]):.6f})")
    lines.append("pi: posterior mean edge type distribution, one row per cluster pair")
    for k in range(pi_mean.shape[0]):
        for l in range(pi_mean.shape[1]):
            lines.append(f"  cluster {k + 1} -> {l + 1}: {_format_row(pi_mean[k, l])}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_elbo_trace(path, trace: np.ndarray) -> None:
    lines = ["iteration,elbo"]
    for i, value in enumerate(np.asarray(trace, dtype=np.float64), start=1):
        lines.append(f"{i},{float(value)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_result_bundle(out_dir, result: FitResult, *, seed: int,
                        n_clusters: int, n_restarts: int, epsilon_converge: float,
                        max_iterations: int) -> dict[str, Path]:
    """Write labels, parameter report, bound trace, and run metadata.

    Returns the paths written, keyed by role.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "labels": out / "labels.txt",
        "parameters": out / "parameters.txt",
        "elbo_trace": out / "elbo_trace.csv",
        "metadata": out / "metadata.json",
    }
    write_labels_file(paths["labels"], result.map_labels)
    write_parameter_report(paths["parameters"], result)
    write_elbo_trace(paths["elbo_trace"], result.elbo_trace)
    metadata = {
        "command": "fit",
        "seed": seed,
        "n_clusters": n_clusters,
        "n_restarts": n_restarts,
        "epsilon_converge": epsilon_converge,
        "max_iterations": max_iterations,
        "best_restart": result.restart_index,
        "converged": result.converged,
        "n_iterations": result.n_iterations,
        "final_elbo": result.final_elbo,
        "restarts": [
            {"restart": r.restart_index,
             "final_elbo": None if np.isnan(r.final_elbo) else r.final_elbo,
             "n_iterations": r.n_iterations, "converged": r.converged}
            for r in result.restarts
        ],
    }
    paths["metadata"].write_text(json.dumps(metadata, indent=2, sort_keys=True) + "\n",
                                 encoding="utf-8", newline="\n")
    return paths
