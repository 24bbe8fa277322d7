"""Plain-text file formats for networks, partitions, labels, fit results and K curves.

All files are UTF-8 with LF line endings and ``.`` as the decimal mark.
Vertices, subgraphs, clusters, and types are 1-indexed on disk; in-memory
arrays are 0-indexed (types keep their 1..C coding, 0 meaning absent).  The
conversion happens here and nowhere else.

Network file::

    rsm v1 N=<n> S=<s> C=<c>
    <src> <dst> <type>        # one line per present edge, row-major

Partition and label files are ``<vertex> <subgraph>`` and
``<vertex> <cluster>`` lines.  A partition lists every vertex of ``1..N``
once; a label file lists any vertices, each at most once.  Ids and values
are positive and fit in int64.

Each format is a list of rules over its int64 columns, checked on all lines
at once; the earliest bad line is reported with its number and the first
rule it breaks.  The columns are read from the open file by numpy's own
reader, ``np.loadtxt``, which reads only what ``str.split`` and ``int``
read and refuses the rest.  When it refuses a file (a ``_``, a non-ASCII
digit, a value past int64, a line of another width, no lines at all), or
its columns break a rule, the text is read whole and ``str.split`` and
``int`` find the earliest bad line and its message.  So a read that passes
never holds the text, only the columns.  Edge and label lines are
formatted and written a chunk of lines at a time.  :func:`load_network`
builds the network with :meth:`~rsm.network.TypedNetwork.from_edges`, so
reading costs grow with the number of lines; no N x N array is built.
"""

from __future__ import annotations

import json
import re
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .generate import _sizes, labels_from_sizes
from .inference import FitConfig
from .network import TypedNetwork, _int_vector, _refuse_outside, _row_order
from .params import FitResult, RsmParams
from .selection import SelectionResult

_HEADER_RE = re.compile(r"^rsm v1 N=(\d+) S=(\d+) C=(\d+)$")
_INT64_MAX = 2 ** 63 - 1


class FormatError(ValueError):
    """A file does not follow its documented format; the message names the line."""


def _fail(path, lineno: int, message: str) -> None:
    raise FormatError(f"{path}:{lineno}: {message}")


def _write_lines(path, lines) -> None:
    """Write ``lines`` as UTF-8 text, each ending in one LF."""
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


# 10, 100, ..., 10**18: a nonnegative int64 has one digit more than the
# number of these it reaches
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def _format_rows(columns) -> bytes:
    """Rows of space-separated nonnegative int64 ``columns``, each row
    ending in one LF, as ASCII bytes; no rows give ``b""``."""
    values = np.stack([np.asarray(c, dtype=np.int64) for c in columns], axis=1).ravel()
    # each field is its digits and one byte after them: a space, or LF at a row end
    ends = np.cumsum(np.searchsorted(_POWERS_OF_TEN, values, side="right") + 2)
    out = np.full(ends[-1] if ends.size else 0, ord(" "), dtype=np.uint8)
    out[ends[len(columns) - 1::len(columns)] - 1] = ord("\n")
    # the digits, last first, for the values that still have any
    at = ends - 2
    while values.size:
        rest = values // 10
        out[at] = values - 10 * rest + ord("0")
        more = rest > 0
        values, at = rest.compress(more), at.compress(more) - 1
    return out.tobytes()


# rows formatted and written at a time, so that a write's temporaries are
# one chunk's whatever the number of rows
_WRITE_ROWS = 8192


def _write_rows(path, header: bytes, columns, offsets) -> None:
    """Write ``header``, then one line per row of the equal-length integer
    ``columns``: each value plus its column's entry of ``offsets``, as
    :func:`_format_rows` writes it.  A column of None holds the row numbers
    0, 1, ....  The rows are formatted and written a chunk at a time."""
    rows = len(next(c for c in columns if c is not None))
    with open(path, "wb") as out:
        out.write(header)
        for at in range(0, rows, _WRITE_ROWS):
            end = min(at + _WRITE_ROWS, rows)
            out.write(_format_rows([np.arange(at + o, end + o) if c is None else c[at:end] + o
                                    for c, o in zip(columns, offsets)]))


def write_network_file(path, net: TypedNetwork) -> None:
    """Write header plus one ``src dst type`` line per edge, row-major,
    a chunk of lines at a time."""
    header = f"rsm v1 N={net.n_vertices} S={net.n_subgraphs} C={net.n_types}\n"
    _write_rows(path, header.encode("ascii"), (net.src, net.dst, net.types), (1, 1, 0))


def read_network_file(path) -> tuple[int, int, int, np.ndarray, np.ndarray, np.ndarray]:
    """Parse a network file into ``(N, S, C, src, dst, types)``.

    ``src`` and ``dst`` are 0-indexed int64 vectors and ``types`` the int64
    types, one entry per edge line in file order.  When any edge line is
    bad, the earliest is reported, naming the first rule it breaks of:
    three fields, integers, source and destination in ``1..N``, no
    self-loop, type in ``1..C``, and no pair listed on an earlier line.
    A header whose N does not fit in int64 is refused.
    """
    with _utf8_lines(path) as lines:
        # the header is the first non-blank line; the edge lines follow it
        lineno, header = 1, lines.readline()
        while header and not header.strip():
            lineno, header = lineno + 1, lines.readline()
        header = header.strip()
        if not header:
            _fail(path, 1, "missing header line 'rsm v1 N=<n> S=<s> C=<c>'")
        match = _HEADER_RE.match(header)
        if match is None:
            _fail(path, lineno, f"bad header {header!r}, expected 'rsm v1 N=<n> S=<s> C=<c>'")
        n, s, c = (int(g) for g in match.groups())
        if s < 1 or c < 1:
            _fail(path, lineno, f"S and C must be >= 1, got S={s} C={c}")
        if n > _INT64_MAX:
            _fail(path, lineno, f"N={n} outside 0..{_INT64_MAX}")
        src, dst, typ = _read_rows(path, lines, ("src", "dst", "type"), [
            (f"source vertex {{src}} outside 1..{n}", lambda i, j, t: (i < 1) | (i > n)),
            (f"destination vertex {{dst}} outside 1..{n}", lambda i, j, t: (j < 1) | (j > n)),
            ("self-loops are not allowed", lambda i, j, t: i == j),
            (f"edge type {{type}} outside 1..{c}", lambda i, j, t: (t < 1) | (t > c)),
        ], "duplicate edge {src} -> {dst}", key=2, first=lineno + 1)
    return n, s, c, src - 1, dst - 1, typ


@contextmanager
def _utf8_lines(path):
    """``path`` open as UTF-8 text with universal newlines, as
    ``Path.read_text`` reads it.  A byte that is not UTF-8 is reported as
    ``read_text`` reports it, at its position in the file rather than in
    the chunk being decoded."""
    try:
        with open(path, encoding="utf-8") as lines:
            yield lines
    except UnicodeDecodeError:
        Path(path).read_text(encoding="utf-8")
        raise


def _loaded(lines, width: int) -> np.ndarray | None:
    """The int64 columns numpy's reader reads from the rest of the open
    text file ``lines``, or None when it refuses them, warns (no lines, or,
    in older numpy, a fraction read into an int column), or reads a width
    other than ``width``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(lines, dtype=np.int64, comments=None, ndmin=2)
        except (ValueError, Warning):
            return None
    return rows.T if rows.shape[1] == width else None


def _first_bad(columns: np.ndarray, rules, key: int) -> int | None:
    """The first row of ``columns`` that breaks a rule or repeats the first
    ``key`` fields of another row, or None.

    A repeated key is blamed on its later row; whether the earlier row
    passes cannot move the first bad row, as it would be earlier still.
    Keys that strictly increase, as in a row-major file, repeat none.
    """
    bad = np.zeros(columns.shape[1], dtype=bool)
    for _, test in rules:
        bad |= test(*columns)
    order = _row_order(columns[:key])
    if order is not None:
        keys = columns[:key, order]
        bad[order[1:][(keys[:, 1:] == keys[:, :-1]).all(axis=0)]] = True
    return int(np.argmax(bad)) if bad.any() else None


def _read_rows(path, lines, fields: tuple[str, ...], rules, repeated: str,
               key: int = 1, first: int = 1) -> np.ndarray:
    """The non-blank lines of the rest of the open text file ``lines``,
    which starts on line ``first`` of ``path``, as int64 columns, one per
    name in ``fields``.

    Each line must hold one integer per field and pass every rule, a
    ``(message, test)`` pair: ``test`` flags the lines that break the rule,
    given the columns.  No two lines may share their first ``key`` fields;
    the later line of a pair breaks ``repeated``.  The earliest bad line is
    reported with the first message it earns, found by running the tests
    again on its Python ints.  Messages are format strings over the field
    names.

    numpy's reader reads the lines straight from the file, and its columns
    are returned when they pass every check.  Otherwise the text is read
    from where it started, and ``str.split`` and ``int`` read it again and
    find the earliest bad line; only this path reports one.
    """
    start = lines.tell()
    columns = _loaded(lines, len(fields))
    if columns is not None and _first_bad(columns, rules, key) is None:
        return columns
    lines.seek(start)
    text = lines.read()
    counts = np.fromiter(map(len, map(str.split, text.split("\n"))), dtype=np.int64)
    rows = np.flatnonzero(counts)
    width = len(fields)
    # Each step finds the earliest line breaking its rule and drops the
    # lines from there on, so later steps see well-formed lines only.
    first_bad = counts.size
    wrong = np.flatnonzero(counts[rows] != width)
    if wrong.size:
        first_bad = rows[wrong[0]]
        rows = rows[:wrong[0]]
    # every line before first_bad holds width tokens
    values = _integers(text.split()[:width * rows.size])
    if values.size < width * rows.size:
        first_bad = rows[values.size // width]
        rows = rows[:values.size // width]
    columns = values[:width * rows.size].reshape(-1, width).T
    bad = _first_bad(columns, rules, key)
    if bad is not None:
        first_bad = rows[bad]
    if first_bad == counts.size:
        return columns
    line = text.split("\n")[first_bad].strip()
    parts = line.split()
    if len(parts) != width:
        _fail(path, first + first_bad, f"expected '{' '.join(fields)}', got {line!r}")
    try:
        named = dict(zip(fields, map(int, parts)))
    except ValueError:
        _fail(path, first + first_bad, f"non-integer field in {line!r}")
    message = next((m for m, test in rules if test(*named.values())), repeated)
    _fail(path, first + first_bad, message.format(**named))


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


def write_partition_file(path, net: TypedNetwork) -> None:
    write_labels_file(path, net.subgraph_of)


def read_partition_file(path, n_vertices: int, n_subgraphs: int) -> np.ndarray:
    """Parse subgraph labels (0-indexed in the returned array).

    Every vertex in ``1..n_vertices`` is listed once, with a subgraph in
    ``1..n_subgraphs``; the array is allocated only once the file holds
    that many distinct vertices in range.
    """
    with _utf8_lines(path) as lines:
        vertex, subgraph = _read_rows(path, lines, ("vertex", "subgraph"), [
            (f"vertex {{vertex}} outside 1..{n_vertices}",
             lambda v, s: (v < 1) | (v > n_vertices)),
            (f"subgraph {{subgraph}} outside 1..{n_subgraphs}",
             lambda v, s: (s < 1) | (s > n_subgraphs)),
        ], "vertex {vertex} listed twice")
        if vertex.size < n_vertices:
            # the ids are distinct and positive, so once sorted they match
            # 1, 2, ... up to the first one missing
            missing = np.count_nonzero(np.sort(vertex) == np.arange(1, vertex.size + 1)) + 1
            lines.seek(0)
            _fail(path, lines.read().count("\n") + 1, f"no subgraph given for vertex {missing}")
    out = np.empty(n_vertices, dtype=np.int64)
    out[vertex - 1] = subgraph - 1
    return out


def load_network(network_path, partition_path) -> TypedNetwork:
    """Read a network file and its partition file into one TypedNetwork."""
    n, s, c, src, dst, types = read_network_file(network_path)
    sub = read_partition_file(partition_path, n, s)
    return TypedNetwork.from_edges(n, src, dst, types, sub, n_types=c, n_subgraphs=s)


def write_labels_file(path, labels: np.ndarray) -> None:
    """Write a vector of 0-indexed cluster labels as 1-indexed ``vertex
    cluster`` lines, a chunk of lines at a time; no labels write one LF.
    Anything but a vector of integers in ``0..2**63 - 2``, the labels
    :func:`read_labels_file` reads back, is refused unwritten."""
    labels = _int_vector(labels, "labels")
    _refuse_outside(labels, _INT64_MAX, "label")
    _write_rows(path, b"" if labels.size else b"\n", (None, labels), (1, 1))


def read_labels_file(path) -> dict[int, int]:
    """Parse cluster labels into {vertex: label}, both 0-indexed.

    Unlike partitions, label files stand alone (no declared N): any vertex
    ids in ``1..2**63 - 1`` are accepted, each at most once.
    """
    with _utf8_lines(path) as lines:
        vertex, cluster = _read_rows(path, lines, ("vertex", "cluster"), [
            ("vertex {vertex} outside 1..", lambda v, k: v < 1),
            ("cluster {cluster} must be >= 1", lambda v, k: k < 1),
            (f"vertex {{vertex}} outside 1..{_INT64_MAX}", lambda v, k: v > _INT64_MAX),
            (f"cluster {{cluster}} outside 1..{_INT64_MAX}", lambda v, k: k > _INT64_MAX),
        ], "vertex {vertex} listed twice")
    if not vertex.size:
        _fail(path, 1, "no labels found")
    return dict(zip((vertex - 1).tolist(), (cluster - 1).tolist()))


def read_params_file(path) -> tuple[RsmParams, np.ndarray]:
    """Parse a generator parameter JSON file.

    Schema: an object with ``alpha`` (S x K), ``gamma`` (S x S), ``pi``
    (K x K x C) and ``subgraph_sizes`` (S nonnegative integers, summing to
    N).  Returns the parameters and the contiguous subgraph labels the sizes
    imply, laid out by :func:`~rsm.generate.labels_from_sizes`.
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
        sizes = _sizes(data["subgraph_sizes"], params.n_subgraphs)
    except (TypeError, ValueError) as exc:
        # TypeError: a value numpy cannot read as a number, such as an object
        raise FormatError(f"{path}:1: {exc}") from exc
    # outside the try: labels that cannot fit are refused by the memory
    # rule's own message, not as a malformed file
    return params, labels_from_sizes(sizes, params.n_subgraphs)


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
    _write_lines(path, lines)


def write_elbo_trace(path, trace: np.ndarray) -> None:
    lines = ["iteration,elbo"]
    for i, value in enumerate(np.asarray(trace, dtype=np.float64), start=1):
        lines.append(f"{i},{float(value)!r}")
    _write_lines(path, lines)


def write_result_bundle(out_dir, result: FitResult, config: FitConfig) -> dict[str, Path]:
    """Write labels, parameter report, bound trace, and run metadata,
    which records ``config``, the configuration of the fit.

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
        "seed": config.seed,
        "n_clusters": config.n_clusters,
        "n_restarts": config.n_restarts,
        "epsilon_converge": config.epsilon_converge,
        "max_iterations": config.max_iterations,
        "best_restart": result.restart_index,
        "converged": result.converged,
        "n_iterations": result.n_iterations,
        "final_elbo": result.final_elbo,
        "restarts": [
            {"restart": i,
             "final_elbo": None if np.isnan(r.final_elbo) else r.final_elbo,
             "n_iterations": r.n_iterations, "converged": r.converged}
            for i, r in enumerate(result.restarts)
        ],
    }
    _write_lines(paths["metadata"], [json.dumps(metadata, indent=2, sort_keys=True)])
    return paths


def write_k_curve(path, selection: SelectionResult) -> None:
    """One ``k,best_elbo,n_restarts_converged`` CSV row per candidate K
    that has a fit, in increasing K."""
    lines = ["k,best_elbo,n_restarts_converged"]
    for k, best in selection.curve():
        n_conv = sum(r.converged for r in selection.per_k[k].restarts)
        lines.append(f"{k},{best!r},{n_conv}")
    _write_lines(path, lines)
