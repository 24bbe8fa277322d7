"""File formats: round trips, strict parsing, and result bundles."""

import io
import json
import math
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

import oracles
from builders import dense_network, random_instance

import rsm.io
from rsm import (
    FitConfig,
    FitResult,
    RestartSummary,
    TypedNetwork,
    VariationalState,
    demo_params,
    fit,
    sample_network,
    scenario_params,
)
from rsm.io import (
    FormatError,
    load_network,
    read_labels_file,
    read_network_file,
    read_params_file,
    read_partition_file,
    write_elbo_trace,
    write_labels_file,
    write_network_file,
    write_parameter_report,
    write_partition_file,
    write_result_bundle,
)


def small_net():
    x = np.array([[0, 1, 2],
                  [2, 0, 1],
                  [0, 3, 0]])
    return dense_network(x, [0, 0, 1], n_types=3, n_subgraphs=2)


class TestNetworkFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "network.txt"
        net = small_net()
        write_network_file(path, net)
        n, s, c, src, dst, types = read_network_file(path)
        assert (n, s, c) == (3, 2, 3)
        for got, want in zip((src, dst, types), (net.src, net.dst, net.types)):
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    def test_written_format_is_stable(self, tmp_path):
        path = tmp_path / "network.txt"
        write_network_file(path, small_net())
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "rsm v1 N=3 S=2 C=3"
        assert lines[1] == "1 2 1"
        assert text.endswith("\n")
        assert "\r" not in path.read_bytes().decode()

    def test_rewriting_is_byte_identical(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        write_network_file(a, small_net())
        write_network_file(b, small_net())
        assert a.read_bytes() == b.read_bytes()

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("")
        with pytest.raises(FormatError, match="missing header"):
            read_network_file(path)

    def test_malformed_header_names_the_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("rsm v2 N=3\n")
        with pytest.raises(FormatError, match=r"bad\.txt:1: bad header"):
            read_network_file(path)

    def test_header_past_int64_is_refused_naming_n(self, tmp_path):
        # no such network can be built, and the edge line's id, past int64
        # but within 1..N, breaks no line rule
        path = tmp_path / "bad.txt"
        path.write_text("rsm v1 N=100000000000000000000 S=1 C=1\n"
                        "99999999999999999999 1 1\n")
        with pytest.raises(FormatError) as raised:
            read_network_file(path)
        assert str(raised.value) == (f"{path}:1: N=100000000000000000000 "
                                     f"outside 0..{2 ** 63 - 1}")
        path.write_text(f"rsm v1 N={2 ** 63 - 1} S=1 C=1\n{2 ** 63 - 1} 1 1\n")
        assert read_network_file(path)[0] == 2 ** 63 - 1

    @pytest.mark.parametrize("line,message", [
        ("0 2 1", "source vertex 0"),
        ("1 4 1", "destination vertex 4"),
        ("2 2 1", "self-loops"),
        ("1 2 9", "edge type 9"),
        ("1 2", "expected 'src dst type'"),
        ("1 2 x", "non-integer"),
    ])
    def test_bad_edge_lines(self, tmp_path, line, message):
        path = tmp_path / "bad.txt"
        path.write_text(f"rsm v1 N=3 S=1 C=3\n{line}\n")
        with pytest.raises(FormatError, match=message):
            read_network_file(path)

    def test_duplicate_edge_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("rsm v1 N=3 S=1 C=2\n1 2 1\n1 2 2\n")
        with pytest.raises(FormatError, match=r"bad\.txt:3: duplicate edge 1 -> 2"):
            read_network_file(path)

    def test_blank_lines_are_ignored(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("\nrsm v1 N=2 S=1 C=1\n\n1 2 1\n\n")
        n, s, c, src, dst, types = read_network_file(path)
        assert (src.tolist(), dst.tolist(), types.tolist()) == ([0], [1], [1])

    def test_edges_come_back_in_file_order(self, tmp_path):
        path = tmp_path / "net.txt"
        path.write_text("rsm v1 N=3 S=1 C=2\n3 1 2\n1 3 1\n2 1 1\n")
        n, s, c, src, dst, types = read_network_file(path)
        assert (src.tolist(), dst.tolist(), types.tolist()) == (
            [2, 0, 1], [0, 2, 0], [2, 1, 1])

    @pytest.mark.parametrize("numpy_reads", [True, False])
    def test_columns_are_views_of_one_block(self, tmp_path, numpy_reads):
        # the 1-offset comes off in place, so neither path copies src or dst
        path = tmp_path / "net.txt"
        path.write_text("rsm v1 N=3 S=1 C=2\n3 1 2\n1 3 1\n2 1 1\n")
        with mock.patch.object(rsm.io, "_loaded",
                               rsm.io._loaded if numpy_reads else lambda lines, width: None):
            n, s, c, src, dst, types = read_network_file(path)
        assert (src.tolist(), dst.tolist(), types.tolist()) == (
            [2, 0, 1], [0, 2, 0], [2, 1, 1])
        assert src.base is not None and src.base is dst.base is types.base

    def test_a_million_vertices_load_as_an_edge_list(self, tmp_path):
        # the reader allocates nothing of size N x N, so a header naming a
        # million vertices with two edges reads at once
        path = tmp_path / "net.txt"
        path.write_text("rsm v1 N=1000000 S=1 C=2\n1 2 1\n1000000 1 2\n")
        n, s, c, src, dst, types = read_network_file(path)
        assert (n, s, c) == (1_000_000, 1, 2)
        net = TypedNetwork.from_edges(n, src, dst, types, np.zeros(n, dtype=np.int64),
                                      n_types=c, n_subgraphs=s)
        assert net.src.tolist() == [0, 999_999]
        assert net.dst.tolist() == [1, 0]
        assert net.types.tolist() == [1, 2]


# Tokens that ``int`` reads and numpy may not, or the other way round, and
# values past int64.
ODD_TOKENS = ["+1", "1_000", "0_2", "\u0661", "\uff12", "\u00b2", "1.0", "x", "",
              "-0", "99999999999999999999", "-99999999999999999999",
              "9223372036854775808", "9223372036854775807"]


def edited_lines(draw, lines, small, key):
    """The text lines of ``lines``, lists of ``key + 1`` tokens whose first
    ``key`` name the line, after up to three edits that may break lines in
    different ways; ``small`` draws the tokens of changed and inserted lines."""
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["token", "blank", "fields", "repeat", "insert"]))
        at = draw(st.integers(0, len(lines)))
        if kind == "token" and lines:
            line = lines[min(at, len(lines) - 1)]
            i = draw(st.integers(0, len(line)))
            line[i:i + 1] = [draw(st.one_of(st.sampled_from(ODD_TOKENS), small))]
        elif kind == "blank":
            lines.insert(at, [draw(st.sampled_from(["", " ", "\t", "\r"]))])
        elif kind == "fields" and lines:
            line = lines[min(at, len(lines) - 1)]
            if line and draw(st.booleans()):
                line.pop()
            else:
                line.append(draw(small))
        elif kind == "repeat" and lines:
            line = list(lines[min(at, len(lines) - 1)])
            line[key:] = [draw(small)]
            lines.insert(draw(st.integers(at, len(lines))), line)
        else:
            lines.insert(at, [draw(small) for _ in range(key + 1)])
    return [" ".join(x) for x in lines]


@st.composite
def corrupted_network_files(draw):
    """The text of a network file: a valid edge list in any order, then up
    to three edits that may break lines in different ways."""
    n = draw(st.integers(0, 5))
    c = draw(st.integers(1, 3))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    lines = [[str(i), str(j), str(draw(st.integers(1, c)))] for i, j in chosen]
    small = st.integers(-1, n + 2).map(str)
    return "\n".join([f"rsm v1 N={n} S=1 C={c}"] + edited_lines(draw, lines, small, 2)) + "\n"


@st.composite
def corrupted_partition_files(draw):
    """``(text, N, S)``: a partition file listing all or some of the
    vertices ``1..N`` in any order, then up to three edits."""
    n = draw(st.integers(0, 5))
    s = draw(st.integers(1, 3))
    vertices = draw(st.permutations(range(1, n + 1)))
    if draw(st.booleans()):
        vertices = vertices[:draw(st.integers(0, n))]
    lines = [[str(v), str(draw(st.integers(1, s)))] for v in vertices]
    small = st.integers(-1, n + 2).map(str)
    return "\n".join(edited_lines(draw, lines, small, 1)) + "\n", n, s


@st.composite
def corrupted_label_files(draw):
    """The text of a label file: distinct vertices with clusters, then up
    to three edits."""
    vertices = draw(st.lists(st.integers(1, 9), unique=True, max_size=6))
    lines = [[str(v), str(draw(st.integers(1, 4)))] for v in vertices]
    small = st.integers(-1, 10).map(str)
    return "\n".join(edited_lines(draw, lines, small, 1)) + "\n"


def outcome(read, path, error):
    """What ``read(path)`` returns, or the text of the ``error`` it raises."""
    try:
        return read(path)
    except error as exc:
        return str(exc)


class TestReaderAgainstTheLoop:
    """The vectorized reader accepts exactly the files the line-by-line loop
    accepts, with the same edges, and otherwise names the same line with
    the same message."""

    @settings(max_examples=300, deadline=None)
    @given(corrupted_network_files())
    @example("rsm v1 N=3 S=1 C=2\n1 2 +1\n2 1_000 1\n")
    @example("rsm v1 N=3 S=1 C=2\n1 2 1\n\n2 \u0663 2\n3 3 1\n")
    @example("rsm v1 N=3 S=1 C=2\n1 2 1\n99999999999999999999 1 1\n")
    @example("rsm v1 N=3 S=1 C=2\n1 2 1\n1 3 -99999999999999999999\n")
    @example("rsm v1 N=3 S=1 C=2\n\n2 1 1\n2 1 2\n1 2 x\n")
    @example("rsm v1 N=3 S=1 C=2\n2 3 9\n1 2\n")
    @example("rsm v1 N=3 S=1 C=2\n1 2 1\n3 1 1\n1 2 1 4\n1 2 2\n")
    def test_same_edges_or_same_message(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "network.txt"
            path.write_text(text, encoding="utf-8")
            try:
                n, s, c, x = oracles.read_network_loop(path)
            except oracles.LoopFormatError as exc:
                with pytest.raises(FormatError) as raised:
                    read_network_file(path)
                assert str(raised.value) == str(exc)
                return
            got = read_network_file(path)
        assert got[:3] == (n, s, c)
        src, dst, types = got[3:]
        assert len(src) == np.count_nonzero(x)
        np.testing.assert_array_equal(x[src, dst], types)


class TestPartitionFile:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 3), max_size=30))
    def test_write_then_read_round_trips(self, labels):
        s = max(labels, default=0) + 1
        net = TypedNetwork.from_edges(len(labels), [], [], [], labels,
                                      n_types=1, n_subgraphs=s)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "partition.txt"
            write_partition_file(path, net)
            sub = read_partition_file(path, len(labels), s)
        assert sub.dtype == np.int64
        assert sub.tolist() == labels

    def test_round_trip(self, tmp_path):
        path = tmp_path / "partition.txt"
        net = small_net()
        write_partition_file(path, net)
        sub = read_partition_file(path, 3, 2)
        np.testing.assert_array_equal(sub, [0, 0, 1])

    def test_every_vertex_required(self, tmp_path):
        path = tmp_path / "partition.txt"
        path.write_text("1 1\n3 2\n")
        with pytest.raises(FormatError, match="no subgraph given for vertex 2"):
            read_partition_file(path, 3, 2)

    def test_duplicate_vertex_rejected(self, tmp_path):
        path = tmp_path / "partition.txt"
        path.write_text("1 1\n1 2\n2 1\n")
        with pytest.raises(FormatError, match="listed twice"):
            read_partition_file(path, 2, 2)

    def test_value_out_of_range(self, tmp_path):
        path = tmp_path / "partition.txt"
        path.write_text("1 5\n2 1\n")
        with pytest.raises(FormatError, match="subgraph 5 outside 1..2"):
            read_partition_file(path, 2, 2)

    def test_a_trillion_vertex_header_is_refused_before_allocating(self, tmp_path):
        # the length-N array is allocated only once N distinct vertices in
        # range are listed, so a short file is refused at once
        path = tmp_path / "partition.txt"
        path.write_text("1 1\n")
        with pytest.raises(FormatError) as raised:
            read_partition_file(path, 10 ** 12, 1)
        assert str(raised.value) == f"{path}:2: no subgraph given for vertex 2"

    def test_load_network_combines_both_files(self, tmp_path):
        net = small_net()
        write_network_file(tmp_path / "n.txt", net)
        write_partition_file(tmp_path / "p.txt", net)
        loaded = load_network(tmp_path / "n.txt", tmp_path / "p.txt")
        np.testing.assert_array_equal(loaded.edge_types, net.edge_types)
        np.testing.assert_array_equal(loaded.subgraph_of, net.subgraph_of)
        assert loaded.n_types == 3 and loaded.n_subgraphs == 2


class TestPartitionReaderAgainstTheLoop:
    """The partition reader returns the loop's values, or raises the loop's
    message."""

    @settings(max_examples=200, deadline=None)
    @given(corrupted_partition_files())
    @example(("1 1\n3 2\n", 3, 2))
    @example(("2 1\n1 2\n2 1\n", 2, 2))
    @example(("1 1\n99999999999999999999 1\n", 2, 1))
    @example(("1 -99999999999999999999\n", 1, 1))
    @example(("\n\n", 2, 1))
    def test_same_values_or_same_message(self, case):
        text, n, s = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "partition.txt"
            path.write_text(text, encoding="utf-8")
            want = outcome(lambda p: oracles.read_pairs_loop(p, n, s, "subgraph"),
                           path, oracles.LoopFormatError)
            got = outcome(lambda p: read_partition_file(p, n, s), path, FormatError)
        if isinstance(want, str):
            assert got == want
        else:
            assert got.tolist() == want.tolist()


class TestLabelsReaderAgainstTheLoop:
    """The label reader returns the loop's dict, or raises the loop's
    message.  The one exception is a value past int64: the loop accepts a
    vertex or cluster of 2**63 or more, which the reader refuses."""

    @settings(max_examples=200, deadline=None)
    @given(corrupted_label_files())
    @example("5 2\n9 1\n")
    @example("1 1\n\n1 2\n")
    @example("99999999999999999999 1\n")
    @example("1 99999999999999999999\n2 0\n")
    @example("1 -99999999999999999999\n")
    @example("99999999999999999999 0\n")
    @example("1 1\n1 99999999999999999999\n")
    def test_same_labels_or_same_message(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "labels.txt"
            path.write_text(text, encoding="utf-8")
            want = outcome(oracles.read_labels_loop, path, oracles.LoopFormatError)
            got = outcome(read_labels_file, path, FormatError)
        past = re.fullmatch(r".*:(\d+): (?:vertex|cluster) (\d+) outside "
                            r"1\.\.9223372036854775807", got if isinstance(got, str) else "")
        if past and got != want:
            # the exempt case: the loop accepted the value, and any line it
            # blames is this one or a later one
            assert int(past[2]) >= 2 ** 63
            if isinstance(want, str):
                assert int(want.rsplit(":", 2)[1]) >= int(past[1])
            return
        assert got == want


# Mostly small ids, so that keys repeat; some tokens of 17 to 20 digits,
# around the 19 of int64; and some that only ``int`` reads, or nothing does.
_tokens = st.one_of(st.integers(0, 12).map(str), st.integers(0, 12).map(str),
                    st.from_regex(r"[0-9]{17,20}", fullmatch=True),
                    st.sampled_from(["007", "00", "-1", "+1", "1_0", "x", "\u0661"]))
# Mostly spaces; a lone "\r" is left in the text by ``io.StringIO``.
_gaps = st.sampled_from([" "] * 6 + ["  ", "\t", "\r", " \r", "\x0b", "\x0c"])


@st.composite
def edge_list_texts(draw):
    """Lines of 0 to 4 tokens with any gaps around them, ending in LF or not."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        tokens = draw(st.lists(_tokens, max_size=4))
        gaps = draw(st.lists(_gaps, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
        lines.append("".join(g + t for g, t in zip(gaps, tokens + [""])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


# (fields, key, rules) in the shapes of the label and network readers
LAYOUTS = [
    (("a", "b"), 1, [("a {a} below 1", lambda a, b: a < 1),
                     ("b {b} past 10**17", lambda a, b: b > 10 ** 17)]),
    (("a", "b", "c"), 2, [("a {a} below 1", lambda a, b, c: a < 1),
                          ("c {c} past 10**17", lambda a, b, c: c > 10 ** 17)]),
]


def rows_or_message(text, fields, key, rules):
    """The columns ``_read_rows`` reads from ``text``, or its message."""
    try:
        columns = rsm.io._read_rows("f", io.StringIO(text), fields, rules, "{a} repeated", key)
    except FormatError as exc:
        return str(exc)
    assert columns.dtype == np.int64
    return columns.tolist()


def split_columns(text, width):
    """The int64 columns that ``str.split`` and ``int`` read from the
    non-blank LF-separated lines of ``text``, or None when a line does not
    hold ``width`` integers in int64."""
    rows = [line.split() for line in text.split("\n") if line.split()]
    try:
        values = [int(token) for row in rows if len(row) == width for token in row]
    except ValueError:
        return None
    if len(values) != width * len(rows) or not all(-2 ** 63 <= v < 2 ** 63 for v in values):
        return None
    return np.array(values, dtype=np.int64).reshape(-1, width).T


class TestTokenizer:
    """numpy's reader reads what ``str.split`` and ``int`` read, and leaves
    to them what it cannot.  ``io.StringIO`` keeps a lone CR, which a file
    opened with universal newlines turns into a line end."""

    @settings(max_examples=300, deadline=None)
    @given(edge_list_texts())
    @example("1 123456789012345678\n2 1234567890123456789\n")
    @example("1 2 123456789012345678\n2 1 1234567890123456789\n")
    @example("007 1\n0 02\n")
    @example("1\t2\r\n3\t 4\r\n1 2 3\t\r\n")
    @example("1\x0b2\n3\x0c4\n")
    @example("1 2\n3 4")
    @example("1 2\n \t\r\n3 4\n\n")
    @example("1 2\r3 4\n")
    @example("")
    def test_same_columns_or_same_message_without_it(self, text):
        for fields, key, rules in LAYOUTS:
            got = rows_or_message(text, fields, key, rules)
            with mock.patch.object(rsm.io, "_loaded", lambda lines, width: None):
                assert rows_or_message(text, fields, key, rules) == got

    @pytest.mark.parametrize("text", ["1 2\n3 4\n", "007\t1\r\n\n 2 5", "+1 -2\n",
                                      "1\x0b2\n3\x0c4\n", "1\xa02\n3\u30004\n",
                                      "9223372036854775807 -9223372036854775808\n"])
    def test_reads_what_int_reads(self, text):
        got = rsm.io._loaded(io.StringIO(text), 2)
        assert got.dtype == np.int64
        assert got.tolist() == split_columns(text, 2).tolist()

    @pytest.mark.parametrize("text", ["", "\n \n", "1_0 2\n", "1 \u0662\n", "1.0 2\n",
                                      "9223372036854775808 1\n", "1 2\r3 4\n", "1 2 3\n",
                                      "1 2\n3\n", "#1 2\n", "1 2\x00\n"])
    def test_leaves_the_rest_to_str_split(self, text):
        assert rsm.io._loaded(io.StringIO(text), 2) is None

    @pytest.mark.parametrize("late", ["4_0", "\u0664", "12345678901234567890", "4.0"])
    def test_a_late_token_sends_the_whole_text_to_str_split(self, late):
        text = "".join(f"{v} 2\n" for v in range(1, 101)) + f"101 {late}\n102 6\n"
        fields, key, rules = LAYOUTS[0]
        assert rsm.io._loaded(io.StringIO(text), 2) is None
        got = rows_or_message(text, fields, key, rules)
        with mock.patch.object(rsm.io, "_loaded", lambda lines, width: None):
            assert rows_or_message(text, fields, key, rules) == got


# Characters that numpy's reader and ``str.split`` or ``int`` might read
# differently: signs, marks of other number syntaxes, quotes, CR, the
# blanks ``str.split`` splits on besides space and tab, non-ASCII digits
# and NUL.
_BLANKS = " \t\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u3000"
# mostly plain integers, so that many texts are read whole
_fields = st.one_of(*[st.integers(-3, 30).map(str)] * 6,
                    st.from_regex(r"[0-9]{18,20}", fullmatch=True),
                    st.text("0123456789+-_.ex#'\"\u0661\uff12\u0e53\x00" + _BLANKS,
                            min_size=1, max_size=4))
_blanks = st.one_of(st.just(" "), st.text(_BLANKS, min_size=1, max_size=2))


@st.composite
def loose_texts(draw):
    """``(text, width)``: lines of mostly ``width`` fields, with any blanks
    between and around them, each ending in LF or CR LF; the text may lose
    its last character."""
    width = draw(st.integers(1, 3))
    text = ""
    for _ in range(draw(st.integers(0, 5))):
        size = draw(st.sampled_from([width] * 8 + [0, width - 1, width + 1]))
        fields = draw(st.lists(_fields, min_size=size, max_size=size))
        gaps = draw(st.lists(_blanks, min_size=len(fields) + 1, max_size=len(fields) + 1))
        line = "".join(g + f for g, f in zip(gaps, fields)) + gaps[-1]
        if draw(st.booleans()):
            line = line.strip(_BLANKS)
        text += line + draw(st.sampled_from(["\n", "\r\n"]))
    return (text[:-1] if draw(st.booleans()) else text), width


class TestNumpyReader:
    """numpy's reader gives None or exactly the columns ``str.split`` and
    ``int`` read, whatever the text."""

    @settings(max_examples=300, deadline=None)
    @given(loose_texts())
    @example(("", 2))
    @example(("\n \t\n\x85\n", 1))
    @example(("1 2\r3 4\n", 2))
    @example(("1\x1c2\n3\u30004\r\n", 2))
    @example(("9223372036854775807 1\n9223372036854775808 1\n", 2))
    @example(("\u0661 1\n", 2))
    @example(("1\x002\n", 1))
    @example(("+0 -0 00\n", 3))
    def test_none_or_the_columns_of_str_split(self, case):
        text, width = case
        got = rsm.io._loaded(io.StringIO(text), width)
        if got is not None:
            want = split_columns(text, width)
            assert want is not None
            assert got.dtype == np.int64 and got.shape == want.shape
            assert got.tolist() == want.tolist()


class TestFormatter:
    """The byte formatter writes what one f-string per row writes."""

    @settings(max_examples=200, deadline=None)
    @given(npst.arrays(np.int64, st.tuples(st.integers(1, 3), st.integers(0, 20)),
                       elements=st.integers(0, 2 ** 63 - 1)))
    def test_same_bytes_as_the_loop(self, columns):
        assert rsm.io._format_rows(columns) == oracles.format_rows_loop(columns)

    def test_place_value_edges(self):
        edges = [0, 9, 2 ** 63 - 1] + [v for k in range(1, 19) for v in (10 ** k - 1, 10 ** k)]
        column = np.array(edges, dtype=np.int64)
        for columns in ([column], [column, column[::-1]], [column, column[::-1], column]):
            assert rsm.io._format_rows(columns) == oracles.format_rows_loop(columns)

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_no_rows_are_no_bytes(self, width):
        assert rsm.io._format_rows([np.zeros(0, dtype=np.int64)] * width) == b""

    def test_no_labels_write_one_lf(self, tmp_path):
        write_labels_file(tmp_path / "labels.txt", np.zeros(0, dtype=np.int64))
        assert (tmp_path / "labels.txt").read_bytes() == b"\n"


class TestWriteChunks:
    """The writers format and write a chunk of rows at a time, and write
    the same bytes whatever the chunk size."""

    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12))
    def test_network_file_is_its_header_and_the_loop_rows(self, rows, seed, n):
        net = random_instance(np.random.default_rng(seed), n, 1, 2, 3).network
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(rsm.io, "_WRITE_ROWS", rows):
            path = Path(tmp) / "network.txt"
            write_network_file(path, net)
            written = path.read_bytes()
        assert written == (f"rsm v1 N={n} S=1 C=3\n".encode("ascii")
                           + oracles.format_rows_loop((net.src + 1, net.dst + 1, net.types)))

    @pytest.mark.parametrize("rows", [1, 2, 3, 7])
    @settings(max_examples=25, deadline=None)
    @given(npst.arrays(np.int64, st.integers(0, 20),
                       elements=st.integers(0, 9) | st.sampled_from([2 ** 63 - 2])))
    @example(np.zeros(0, dtype=np.int64))
    def test_labels_file_is_the_loop_rows_or_one_lf(self, rows, labels):
        with tempfile.TemporaryDirectory() as tmp, \
                mock.patch.object(rsm.io, "_WRITE_ROWS", rows):
            path = Path(tmp) / "labels.txt"
            write_labels_file(path, labels)
            written = path.read_bytes()
        assert written == (oracles.format_rows_loop((np.arange(1, labels.size + 1), labels + 1))
                           or b"\n")


def traced_peak(call) -> float:
    """The tracemalloc peak of ``call()``, in MiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


class TestMemory:
    """Writing an edge list takes one chunk's temporaries, and reading one
    takes numpy's reader's beside the columns, never the text: on about
    200 000 edges (a 2.5 MB file) the writer once peaked at 33.6 MiB and
    the loader at 32.4 MiB."""

    @pytest.fixture(scope="class")
    def written(self, tmp_path_factory):
        params, sub = scenario_params(
            alpha=[[0.5, 0.5], [0.5, 0.5]], type_probs_within=[0.7, 0.2, 0.1],
            type_probs_between=[0.1, 0.3, 0.6], edge_prob_within=0.0005,
            edge_prob_between=0.0005, subgraph_sizes=[10_000, 10_000])
        net = sample_network(params, sub, 7).network
        out = tmp_path_factory.mktemp("large")
        write_network_file(out / "network.txt", net)
        write_partition_file(out / "partition.txt", net)
        return net, out

    def test_writing_peaks_under_3_mib(self, written):
        net, out = written
        assert 190_000 < len(net.src) < 210_000
        assert traced_peak(lambda: write_network_file(out / "again.txt", net)) < 3
        assert (out / "again.txt").read_bytes() == (out / "network.txt").read_bytes()

    def test_loading_peaks_under_16_mib(self, written):
        net, out = written
        loaded = []
        assert traced_peak(lambda: loaded.append(
            load_network(out / "network.txt", out / "partition.txt"))) < 16
        np.testing.assert_array_equal(loaded[0].src, net.src)


class TestNotUtf8:
    """A byte that is not UTF-8 is reported as ``Path.read_text`` reports
    it, at its position in the file: in the network header, just after it,
    and past the first 8 KiB, which a text file decodes a chunk at a time."""

    @pytest.mark.parametrize("read, data, position", [
        (read_network_file, b"rsm v1 N=3 S=1 C=\xff\n1 2 1\n", 17),
        (read_network_file, b"rsm v1 N=3 S=1 C=2\n\xff1 2 1\n", 19),
        (read_network_file, b"rsm v1 N=3 S=1 C=2\n1 2 1\n" + b"\n" * 9975 + b"\xff\n", 10000),
        (lambda path: read_partition_file(path, 3, 1),
         b"1 1\n2 1\n3 1\n" + b"\n" * 9988 + b"3 \xff\n", 10002),
        (read_labels_file, b"1 1\n" + b"\n" * 9996 + b"\xff", 10000),
    ], ids=["network header", "after the header", "network past 8 KiB",
            "partition past 8 KiB", "labels past 8 KiB"])
    def test_the_message_gives_the_position_in_the_file(self, tmp_path, read, data, position):
        path = tmp_path / "file.txt"
        path.write_bytes(data)
        with pytest.raises(UnicodeDecodeError) as raised:
            read(path)
        assert str(raised.value) == (f"'utf-8' codec can't decode byte 0xff in position "
                                     f"{position}: invalid start byte")


_label_shapes = npst.array_shapes(min_dims=0, max_dims=2, max_side=4)
# small and extreme labels, valid or not, of three dtypes and any nonempty
# shape up to 2-D; an empty vector is left out, as it writes a file that the
# reader refuses
label_arrays = st.one_of(
    npst.arrays(np.int64, _label_shapes,
                elements=st.integers(-2, 4) | st.sampled_from([2 ** 63 - 2, 2 ** 63 - 1])),
    npst.arrays(np.uint64, _label_shapes,
                elements=st.integers(0, 4) | st.sampled_from([2 ** 63 - 1, 2 ** 63])),
    npst.arrays(np.float64, _label_shapes,
                elements=st.sampled_from([-1.0, 0.0, 2.0, 0.5, np.nan, 2.0 ** 63])),
)


class TestLabelsFile:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 63 - 2), min_size=1, max_size=30))
    def test_write_then_read_round_trips(self, labels):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "labels.txt"
            write_labels_file(path, np.array(labels))
            assert read_labels_file(path) == dict(enumerate(labels))

    @pytest.mark.parametrize("line,message", [
        ("99999999999999999999 1", "vertex 99999999999999999999 outside "
                                   "1..9223372036854775807"),
        ("1 9223372036854775808", "cluster 9223372036854775808 outside "
                                  "1..9223372036854775807"),
    ])
    def test_values_past_int64_rejected(self, tmp_path, line, message):
        path = tmp_path / "labels.txt"
        path.write_text(f"1 1\n{line}\n")
        with pytest.raises(FormatError) as raised:
            read_labels_file(path)
        assert str(raised.value) == f"{path}:2: {message}"

    def test_round_trip_is_one_indexed_on_disk(self, tmp_path):
        path = tmp_path / "labels.txt"
        write_labels_file(path, np.array([0, 2, 1]))
        assert path.read_text() == "1 1\n2 3\n3 2\n"
        assert read_labels_file(path) == {0: 0, 1: 2, 2: 1}

    @pytest.mark.parametrize("labels", [[0.7, 1.9], [0, np.nan]])
    def test_fractional_labels_are_refused(self, tmp_path, labels):
        # the int64 cast would write "1 1" and "2 2" for [0.7, 1.9]
        path = tmp_path / "labels.txt"
        with pytest.raises(ValueError, match="labels must contain integers"):
            write_labels_file(path, labels)
        assert not path.exists()

    @pytest.mark.parametrize("labels,message", [
        ([0, -1], "label -1 at vertex 1 outside 0..9223372036854775806"),
        ([2 ** 63 - 1], "label 9223372036854775807 at vertex 0 outside "
                        "0..9223372036854775806"),
    ], ids=["negative", "cluster past int64"])
    def test_labels_the_reader_refuses_are_not_written(self, tmp_path, labels, message):
        # [0, -1] was written as "2 0", which the reader refuses
        path = tmp_path / "labels.txt"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            write_labels_file(path, np.array(labels))
        assert not path.exists()

    @settings(max_examples=100, deadline=None)
    @given(label_arrays)
    def test_the_writer_writes_only_what_the_reader_reads(self, labels):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "labels.txt"
            try:
                write_labels_file(path, labels)
            except ValueError:
                assert not path.exists()
                return
            assert read_labels_file(path) == dict(enumerate(labels.tolist()))

    def test_sparse_vertex_ids_are_allowed(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("5 2\n9 1\n")
        assert read_labels_file(path) == {4: 1, 8: 0}

    def test_duplicate_vertex_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1 1\n1 2\n")
        with pytest.raises(FormatError, match="listed twice"):
            read_labels_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("\n\n")
        with pytest.raises(FormatError, match="no labels"):
            read_labels_file(path)

    def test_nonpositive_values_rejected(self, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("1 0\n")
        with pytest.raises(FormatError, match="cluster 0"):
            read_labels_file(path)


class TestParamsFile:
    def params_payload(self):
        return {
            "alpha": [[0.3, 0.7], [0.5, 0.5]],
            "gamma": [[0.4, 0.1], [0.1, 0.4]],
            "pi": [[[0.9, 0.1], [0.2, 0.8]], [[0.5, 0.5], [0.3, 0.7]]],
            "subgraph_sizes": [4, 3],
        }

    def test_round_trip(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(self.params_payload()))
        params, sub = read_params_file(path)
        np.testing.assert_allclose(params.alpha, [[0.3, 0.7], [0.5, 0.5]])
        np.testing.assert_array_equal(sub, [0, 0, 0, 0, 1, 1, 1])

    def test_missing_keys_are_listed(self, tmp_path):
        path = tmp_path / "params.json"
        payload = self.params_payload()
        del payload["pi"]
        del payload["gamma"]
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="missing keys: gamma, pi"):
            read_params_file(path)

    def test_syntax_error_names_the_line(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text("{\n  \"alpha\": [[1.0]\n")
        with pytest.raises(FormatError, match=r"params\.json:\d+"):
            read_params_file(path)

    def test_non_object_rejected(self, tmp_path):
        path = tmp_path / "params.json"
        path.write_text("[1, 2]")
        with pytest.raises(FormatError, match="JSON object"):
            read_params_file(path)

    def test_invalid_tables_are_wrapped(self, tmp_path):
        path = tmp_path / "params.json"
        payload = self.params_payload()
        payload["alpha"] = [[0.9, 0.9], [0.5, 0.5]]
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="alpha"):
            read_params_file(path)

    @pytest.mark.parametrize("sizes, message", [
        ([2.7], "must contain integers"),
        ([-1], "must be nonnegative, got -1"),
        ([[3]], r"must list 1 sizes, got shape \(1, 1\)"),
    ], ids=["fractional", "negative", "nested"])
    def test_malformed_sizes_are_refused(self, tmp_path, sizes, message):
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"alpha": [[0.3, 0.7]], "gamma": [[0.4]],
                                    "pi": self.params_payload()["pi"],
                                    "subgraph_sizes": sizes}))
        with pytest.raises(FormatError, match=r"params\.json:1: subgraph_sizes " + message):
            read_params_file(path)

    def test_non_numeric_tables_are_wrapped(self, tmp_path):
        path = tmp_path / "params.json"
        payload = self.params_payload()
        payload["alpha"] = {"rows": 2}
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match=r"params\.json:1: float\(\) argument"):
            read_params_file(path)

    def test_size_count_must_match_alpha(self, tmp_path):
        path = tmp_path / "params.json"
        payload = self.params_payload()
        payload["subgraph_sizes"] = [7]
        path.write_text(json.dumps(payload))
        with pytest.raises(FormatError, match="subgraph_sizes"):
            read_params_file(path)


def tiny_result():
    state = VariationalState(
        tau=[[1.0, 0.0], [0.0, 1.0]],
        chi=[[1.0, 3.0]],
        a=[[2.0]],
        b=[[6.0]],
        xi=np.full((2, 2, 2), 1.0),
    )
    return FitResult(state=state, restart_index=0,
                     restarts=(RestartSummary([-1.5, -1.0], "converged"),
                               RestartSummary([], "failed: non-finite bound value nan")))


class TestReports:
    def test_parameter_report_values(self, tmp_path):
        path = tmp_path / "parameters.txt"
        write_parameter_report(path, tiny_result())
        text = path.read_text()
        assert "  subgraph 1: 0.250000 0.750000" in text
        assert f"  subgraph 1 -> 1: 0.250000 (log {math.log(0.25):.6f})" in text
        assert "  cluster 1 -> 2: 0.500000 0.500000" in text

    def test_elbo_trace_format(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_elbo_trace(path, np.array([-1.5, -1.0]))
        assert path.read_text() == "iteration,elbo\n1,-1.5\n2,-1.0\n"

    def test_result_bundle_files_and_metadata(self, tmp_path):
        paths = write_result_bundle(tmp_path / "out", tiny_result(),
                                    FitConfig(n_clusters=2, n_restarts=2, seed=3))
        for role in ("labels", "parameters", "elbo_trace", "metadata"):
            assert paths[role].exists()
        assert paths["labels"].read_text() == "1 1\n2 2\n"
        metadata = json.loads(paths["metadata"].read_text())
        assert metadata["seed"] == 3
        assert metadata["n_clusters"] == 2
        assert metadata["final_elbo"] == -1.0
        assert metadata["best_restart"] == 0
        # a failed restart serializes its bound as null
        assert metadata["restarts"][1] == {"restart": 1, "final_elbo": None,
                                           "n_iterations": 0, "converged": False}
        assert metadata["restarts"][0]["converged"] is True

    def test_bundle_round_trips_through_a_real_fit(self, tmp_path):
        sample = sample_network(*demo_params(), 0)
        config = FitConfig(n_clusters=3, n_restarts=2, seed=0)
        result = fit(sample.network, config)
        paths = write_result_bundle(tmp_path / "run", result, config)
        labels = read_labels_file(paths["labels"])
        assert sorted(labels) == list(range(30))
        np.testing.assert_array_equal(
            [labels[v] for v in range(30)], result.map_labels)
        metadata = json.loads(paths["metadata"].read_text())
        assert metadata["final_elbo"] == result.final_elbo
        assert len(metadata["restarts"]) == 2
