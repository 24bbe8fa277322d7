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
rule it breaks.  The columns are read from the file's bytes in a few numpy
passes over one block of lines at a time when the text holds only ASCII
digits, spaces, tabs, CR and LF, and no token of more than 18 digits.  Any
other text (a sign, ``_``, ``\\x0b`` or ``\\x0c``, a non-ASCII digit, a
value that may not fit in int64), in any block, sends the whole text to
``str.split`` and ``int`` instead, under the same rules and messages.  Edge
and label lines are formatted and written a chunk of lines at a time.  So
the temporaries of a read or a write are one block's or one chunk's beside
the text and the columns.  :func:`load_network` builds the network with
:meth:`~rsm.network.TypedNetwork.from_edges`, so reading costs grow with
the number of lines; no N x N array is built.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np

from .generate import labels_from_sizes
from .inference import FitConfig
from .network import TypedNetwork, _int_vector, _refuse_outside, _row_order
from .params import FitResult, RsmParams
from .selection import SelectionResult

_HEADER_RE = re.compile(r"^rsm v1 N=(\d+) S=(\d+) C=(\d+)$")
# what str.lstrip strips: \s matches the characters str.isspace accepts
_LEADING_SPACE_RE = re.compile(r"\s*")
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
    text = Path(path).read_text(encoding="utf-8")
    # the header is the first non-blank line; the edge lines follow it, and
    # are read in place rather than from a copy of the text after it
    at = _LEADING_SPACE_RE.match(text).end()
    lineno = text.count("\n", 0, at) + 1
    end = text.find("\n", at)
    end = len(text) if end < 0 else end
    header = text[at:end].strip()
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
    src, dst, typ = _read_rows(path, text, ("src", "dst", "type"), [
        (f"source vertex {{src}} outside 1..{n}", lambda i, j, t: (i < 1) | (i > n)),
        (f"destination vertex {{dst}} outside 1..{n}", lambda i, j, t: (j < 1) | (j > n)),
        ("self-loops are not allowed", lambda i, j, t: i == j),
        (f"edge type {{type}} outside 1..{c}", lambda i, j, t: (t < 1) | (t > c)),
    ], "duplicate edge {src} -> {dst}", key=2, first=lineno + 1, start=end + 1)
    return n, s, c, src - 1, dst - 1, typ


def _read_rows(path, text: str, fields: tuple[str, ...], rules, repeated: str,
               key: int = 1, first: int = 1, start: int = 0) -> np.ndarray:
    """The non-blank lines of ``text[start:]``, which starts on line
    ``first`` of ``path``, as int64 columns, one per name in ``fields``.

    Each line must hold one integer per field and pass every rule, a
    ``(message, test)`` pair: ``test`` flags the lines that break the rule,
    given the columns.  No two lines may share their first ``key`` fields;
    the later line of a pair breaks ``repeated``.  All lines are checked
    together, and the earliest bad line is reported with the first message
    it earns, found by running the tests again on its Python ints.
    Messages are format strings over the field names.

    An ASCII text is encoded once and tokenized from ``start`` in place;
    only the ``str.split`` path and an error report copy the lines out.
    """
    tokens = _ascii_tokens(memoryview(text.encode("ascii"))[start:] if text.isascii()
                           else text[start:])
    if tokens is None:
        text, start = text[start:], 0
        counts = np.fromiter(map(len, map(str.split, text.split("\n"))), dtype=np.int64)
    else:
        counts, values = tokens
    lines = np.flatnonzero(counts)
    width = len(fields)
    # Each step finds the earliest line breaking its rule and drops the
    # lines from there on, so later steps see well-formed lines only.
    first_bad = counts.size
    wrong = np.flatnonzero(counts[lines] != width)
    if wrong.size:
        first_bad = lines[wrong[0]]
        lines = lines[:wrong[0]]
    # every line before first_bad holds width tokens
    if tokens is None:
        values = _integers(text.split()[:width * lines.size])
    if values.size < width * lines.size:
        first_bad = lines[values.size // width]
        lines = lines[:values.size // width]
    columns = values[:width * lines.size].reshape(-1, width).T
    bad = np.zeros(lines.size, dtype=bool)
    for _, test in rules:
        bad |= test(*columns)
    # a repeated key is blamed on its later line; whether the earlier line
    # passes cannot move the earliest bad line, as it would be earlier still.
    # Keys that strictly increase, as in a row-major file, repeat none.
    order = _row_order(columns[:key])
    if order is not None:
        keys = columns[:key, order]
        bad[order[1:][(keys[:, 1:] == keys[:, :-1]).all(axis=0)]] = True
    if bad.any():
        first_bad = lines[np.argmax(bad)]
    if first_bad == counts.size:
        return columns
    line = text[start:].split("\n")[first_bad].strip()
    parts = line.split()
    if len(parts) != width:
        _fail(path, first + first_bad, f"expected '{' '.join(fields)}', got {line!r}")
    try:
        named = dict(zip(fields, map(int, parts)))
    except ValueError:
        _fail(path, first + first_bad, f"non-integer field in {line!r}")
    message = next((m for m, test in rules if test(*named.values())), repeated)
    _fail(path, first + first_bad, message.format(**named))


# bytes tokenized at a time, cut back to a line end, so that the
# temporaries of a read are one block's whatever the length of the text
_READ_BLOCK = 1 << 16


def _blocks(data: np.ndarray):
    """Yield ``(start, end)`` of consecutive pieces that cover ``data``.
    A piece ends after the last LF in its first ``_READ_BLOCK`` bytes, or,
    if they hold none, in the next ``_READ_BLOCK`` bytes, and so on; the
    last piece ends with ``data``."""
    at = 0
    while at < data.size:
        look, end = at, min(at + _READ_BLOCK, data.size)
        while end < data.size:
            breaks = np.flatnonzero(data[look:end] == ord("\n"))
            if breaks.size:
                end = look + int(breaks[-1]) + 1
                break
            look, end = end, min(end + _READ_BLOCK, data.size)
        yield at, end
        at = end


def _ascii_tokens(text) -> tuple[np.ndarray, np.ndarray] | None:
    """The number of tokens on each LF-separated line of ``text``, a str or
    the bytes of an ASCII one, and the int64 values of all its tokens in
    order, as ``str.split`` and ``int`` read them.

    Works on the bytes in a few numpy passes over one block of lines at a
    time: the first counts each block's lines and tokens, and the second
    reads each block's counts and values straight into the outputs.
    Returns None, leaving the whole text to ``str.split``, when it is not
    ASCII, holds a byte that is not a digit, space, tab, CR or LF (a sign,
    ``_``, ``\\x0b`` or ``\\x0c``, for instance), or holds a token of more
    than 18 digits, which might not fit in int64.
    """
    if isinstance(text, str):
        if not text.isascii():
            return None
        text = text.encode("ascii")
    data = np.frombuffer(text, dtype=np.uint8)
    blocks = list(_blocks(data))
    n_lines, n_tokens = 1, 0
    for start, end in blocks:
        block = data[start:end]
        digit = (block - np.uint8(ord("0"))) < 10
        if not (digit | (block == ord(" ")) | (block == ord("\n")) | (block == ord("\t"))
                | (block == ord("\r"))).all():
            return None
        # a block starts a line, so a token starts at its first byte or at
        # a digit after a blank
        n_tokens += int(digit[0]) + np.count_nonzero(digit[1:] > digit[:-1])
        n_lines += np.count_nonzero(block == ord("\n"))
    counts = np.zeros(n_lines, dtype=np.int64)
    values = np.zeros(n_tokens, dtype=np.int64)
    line = token = 0
    for start, end in blocks:
        digits = data[start:end] - np.uint8(ord("0"))
        is_digit = digits < 10
        # a run of digits starts at each odd change and ends before each even one
        bounds = np.flatnonzero(np.diff(is_digit, prepend=False, append=False))
        starts, ends = bounds[0::2], bounds[1::2]
        longest = (ends - starts).max(initial=0)
        if longest > 18:
            return None
        # the block's lines, the last of which the next block continues
        breaks = np.flatnonzero(data[start:end] == ord("\n"))
        counts[line:line + breaks.size + 1] = np.diff(np.searchsorted(starts, breaks),
                                                      prepend=0, append=starts.size)
        line += breaks.size
        # Horner's rule over the places, the highest first: a place left of a
        # token's first digit reads 0 (an index below 0 wraps round, and reads
        # 0 too; it is never below -digits.size, as the longest token lies in
        # the block)
        out = values[token:token + starts.size]
        token += starts.size
        at = ends - longest
        for _ in range(longest):
            out *= 10
            out += digits[at] * (at >= starts)
            at += 1
    return counts, values


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
    text = Path(path).read_text(encoding="utf-8")
    vertex, subgraph = _read_rows(path, text, ("vertex", "subgraph"), [
        (f"vertex {{vertex}} outside 1..{n_vertices}",
         lambda v, s: (v < 1) | (v > n_vertices)),
        (f"subgraph {{subgraph}} outside 1..{n_subgraphs}",
         lambda v, s: (s < 1) | (s > n_subgraphs)),
    ], "vertex {vertex} listed twice")
    if vertex.size < n_vertices:
        # the ids are distinct and positive, so once sorted they match
        # 1, 2, ... up to the first one missing
        missing = np.count_nonzero(np.sort(vertex) == np.arange(1, vertex.size + 1)) + 1
        _fail(path, text.count("\n") + 1, f"no subgraph given for vertex {missing}")
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
    text = Path(path).read_text(encoding="utf-8")
    vertex, cluster = _read_rows(path, text, ("vertex", "cluster"), [
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
        return params, labels_from_sizes(data["subgraph_sizes"], params.n_subgraphs)
    except (TypeError, ValueError) as exc:
        # TypeError: a value numpy cannot read as a number, such as an object
        raise FormatError(f"{path}:1: {exc}") from exc


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
