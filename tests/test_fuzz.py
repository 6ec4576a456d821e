"""Fuzzed metric and graph files through every command that reads one: the
output protocol holds whatever the input.

Each file goes on stdin to `main` in-process.  Every size stays small (at
most 16 points or vertices, text headers up to 64, distances up to 20
apart from the exponent forms), so no input can run long: a valid 16-point
table of distances up to 20 embeds into a few thousand vertices, and an
exponent near +-2000 is refused by the digit cap or the host-vertex cap
before anything is built.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from metricgraph import parse_metric
from metricgraph.cli import main
from metricgraph.errors import MetricGraphError

MAX_POINTS = 16
MAX_HEADER = 64

COMMANDS = [
    "validate", "realize", "realize --fallback-embed --require-onto", "embed", "embed --require-onto",
    "ceil-embed", "distances", "check --mb", "check --line",
]


def _class_names(base: type) -> set[str]:
    return {base.__name__, *(name for sub in base.__subclasses__() for name in _class_names(sub))}


EXIT_1_ERRORS = {None, "condition_failed", "not_onto", "disconnected"}
EXIT_2_ERRORS = {"metric_violation"} | _class_names(MetricGraphError) | _class_names(OSError)

# Values in [a, 2a] always satisfy the triangle inequality, so a table drawn
# from one range is a metric until an edit breaks it.
METRIC_RANGES = [(1,), (1, 2), (2, 3, 4), ("3/2", 2, "5/2", 3), (10, 20)]

exponent = st.integers(1990, 2010) | st.integers(-2010, -1990)
odd_entry = st.one_of(
    st.integers(-3, 20),
    st.sampled_from(["1/2", "0.5", "-1", "x", "", "1/0", "7/1", " 3"]),
    st.builds("{}e{}".format, st.sampled_from(["1", "2.5", "-3"]), exponent),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0.25, True, None]),
    st.lists(st.integers(0, 3), max_size=2),
)
odd_label = st.one_of(
    st.text(max_size=3),
    st.builds("__{}".format, st.text(max_size=3)),
    st.builds(str.__mul__, st.sampled_from(["a", "é", "\n", "\""]), st.integers(81, 400)),
    st.integers(-2, 2), st.none(), st.lists(st.text(max_size=2), max_size=2),
)


def _sometimes(draw) -> bool:
    return draw(st.integers(0, 4)) == 0


def _render_json(draw, fields: list[tuple[str, object]]) -> str:
    """JSON object text, with a repeated key, a BOM or deep nesting drawn in."""
    if draw(st.booleans()):
        key = draw(st.sampled_from([k for k, _ in fields]))
        fields = fields + [(key, draw(st.sampled_from([[], [[0]], "x", 0])))]
    text = "{" + ", ".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in draw(st.permutations(fields))) + "}"
    if _sometimes(draw):
        depth = draw(st.sampled_from([1, 40, 5000]))
        text = "[" * depth + text + "]" * depth
    return ("\ufeff" if _sometimes(draw) else "") + text


def _header(draw, n: int) -> str:
    if not _sometimes(draw):
        return str(n)
    return str(draw(st.integers(-1, MAX_HEADER) | st.sampled_from(["x", "1e3", ""])))


@st.composite
def metric_files(draw) -> tuple[str, str]:
    """A metric file: a drawn metric table, then up to three edits of an
    entry, a label or a row's length."""
    n = draw(st.integers(0, MAX_POINTS))
    values = st.sampled_from(draw(st.sampled_from(METRIC_RANGES)))
    upper = {(i, j): draw(values) for i in range(n) for j in range(i + 1, n)}
    rows = [[0 if i == j else upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    labels: list = [f"p{i}" for i in range(n)]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 3]))):
        if not n:
            break
        edit = draw(st.sampled_from(["entry", "label", "row"]))
        row = rows[draw(st.integers(0, n - 1))]
        if edit == "entry" and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(odd_entry)
        elif edit == "label":
            labels[draw(st.integers(0, n - 1))] = draw(odd_label)
        elif edit == "row":
            if row and draw(st.booleans()):
                row.pop()
            else:
                row.append(draw(odd_entry))
    if draw(st.booleans()):
        return "json", _render_json(draw, [("points", labels), ("distances", rows)])
    body = "\n".join(" ".join(str(v) for v in row) for row in rows)
    return "text", f"{_header(draw, n)}\n{body}\n"


@st.composite
def graph_files(draw) -> tuple[str, str]:
    """A graph file: a spanning tree on up to 16 vertices, dropped or not,
    plus a few drawn pairs (maybe loops or repeats) and maybe one edge that
    is not a pair of indices below n."""
    n = draw(st.integers(0, MAX_POINTS))
    edges: list = [] if _sometimes(draw) else [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    pair = st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    edges += draw(st.lists(pair, max_size=3))
    if _sometimes(draw):
        edges.append(draw(st.sampled_from([[n, 0], [-1, 0], [0], [0, 1, 2], ["0", 1], [0.5, 1], 7])))
    if draw(st.booleans()):
        labels: list = [f"v{i}" for i in range(n)]
        if n and _sometimes(draw):
            labels[draw(st.integers(0, n - 1))] = draw(odd_label)
        return "json", _render_json(draw, [("vertices", labels), ("edges", edges)])
    lines = [" ".join(map(str, e)) if isinstance(e, (list, tuple)) else str(e) for e in edges]
    return "text", f"{_header(draw, n)} {len(lines)}\n" + "".join(f"{ln}\n" for ln in lines)


def run_on_stdin(argv: list[str], text: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(sys, "stdin", io.StringIO(text)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(file=metric_files() | graph_files(), command=st.sampled_from(COMMANDS),
       other_format=st.integers(0, 4).map(lambda k: k == 0))
def test_every_input_gets_one_document_and_one_line(file, command, other_format):
    """`main` never raises and exits 0, 1 or 2; stdout holds one document
    and stderr one line; exit 1 is a domain negative and exit 2 names a
    typed error."""
    fmt, text = file
    if other_format:
        fmt = "text" if fmt == "json" else "json"
    argv = [*command.split(), "--format", fmt, "-"]
    code, out, err = run_on_stdin(argv, text)
    assert code in (0, 1, 2)
    assert err.endswith("\n") and err.count("\n") == 1, err
    if argv[0] == "distances" and fmt == "text" and code == 0:
        assert parse_metric(out, "matrix").n >= 1
        return
    assert out.endswith("\n") and out.count("\n") == 1, out
    doc = json.loads(out)
    assert isinstance(doc, dict)
    if code == 1:
        assert doc.get("error") in EXIT_1_ERRORS, doc
    elif code == 2:
        assert doc["error"] in EXIT_2_ERRORS, doc
