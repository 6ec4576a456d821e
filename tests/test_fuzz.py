"""Fuzzed metric and graph files through every command that reads one: the
output protocol holds whatever the input, and `validate`'s answers equal
the brute-force oracles'.

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
import itertools
import json
import random
import sys
from fractions import Fraction
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from metricgraph import MetricSpace, geodesic_metric, parse_metric
from metricgraph.cli import main
from metricgraph.errors import MetricGraphError

import oracles
import randgen

MAX_POINTS = 16
MAX_HEADER = 64

COMMANDS = [
    "validate", "realize", "embed", "ceil-embed", "distances",
    "check --mb", "check --line", "check --plq", "check --quad-ineq",
]


def _class_names(base: type) -> set[str]:
    return {base.__name__, *(name for sub in base.__subclasses__() for name in _class_names(sub))}


EXIT_1_ERRORS = {None, "condition_failed", "disconnected"}
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
    typed error.  `check` tells the format by content and takes no `--format`."""
    fmt, text = file
    if other_format:
        fmt = "text" if fmt == "json" else "json"
    argv = [*command.split(), *([] if command.startswith("check") else ["--format", fmt]), "-"]
    code, out, err = run_on_stdin(argv, text)
    assert code in (0, 1, 2)
    assert err.endswith("\n") and err.count("\n") == 1, err
    if argv[0] == "distances" and fmt == "text" and code == 0:
        assert parse_metric(out, "text").n >= 1
        return
    assert out.endswith("\n") and out.count("\n") == 1, out
    doc = json.loads(out)
    assert isinstance(doc, dict)
    assert "unrecognized arguments" not in doc.get("message", ""), doc
    if code == 1:
        assert doc.get("error") in EXIT_1_ERRORS, doc
    elif code == 2:
        assert doc["error"] in EXIT_2_ERRORS, doc


@st.composite
def validate_tables(draw) -> list[list]:
    """A table of at most 10 points, ints where integral: a `randgen` graph
    metric or a subset of one, or [a, 2a] integers or hundredths in [1, 2]
    with maybe one pair's entry raised past 2a (which often breaks a
    triangle), made nonpositive, or raised on one side only."""
    kind = draw(st.sampled_from(["range", "hundredths", "graph", "subset"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind == "graph":
        return [list(row) for row in geodesic_metric(randgen.random_connected_graph(rng, rng.randint(1, 10))).dist]
    if kind == "subset":
        return [list(row) for row in randgen.random_subset_metric(rng, 10).dist]
    n = draw(st.integers(2, 10))
    lo, unit = (draw(st.integers(1, 4)), 1) if kind == "range" else (100, 100)
    upper = {(i, j): draw(st.integers(lo, 2 * lo)) for i, j in itertools.combinations(range(n), 2)}
    rows = [[0 if i == j else upper[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    edit = draw(st.sampled_from([None, None, "triangle", "triangle", "asymmetry", "nonpositive"]))
    if edit is not None:
        i, j = sorted(draw(st.permutations(range(n)))[:2])
        rows[i][j] = {"triangle": draw(st.integers(2 * lo + 1, 4 * lo + 1)), "asymmetry": rows[i][j] + 1,
                      "nonpositive": draw(st.integers(-1, 0))}[edit]
        if edit != "asymmetry":
            rows[j][i] = rows[i][j]
    return [[v // unit if v % unit == 0 else Fraction(v, unit) for v in row] for row in rows]


@settings(max_examples=120, deadline=None)
@given(rows=validate_tables(), text=st.booleans())
def test_validate_answers_equal_the_oracles(rows, text):
    """`validate`'s verdict, violation, integrality and Kay-Chartrand witness
    equal the plain scans of `oracles`, and it exits 0 iff that pass holds."""
    n = len(rows)
    labels = [f"p{i}" for i in range(n)]
    if text:
        file = f"{n}\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)
    else:
        cells = [[v if v.denominator == 1 else str(v) for v in row] for row in rows]
        file = json.dumps({"points": labels, "distances": cells})
    code, out, _ = run_on_stdin(["validate", "--format", "text" if text else "json", "-"], file)
    doc = json.loads(out)
    violation = oracles.brute_first_violation(rows)
    assert doc["metric_valid"] is (violation is None)
    if violation is not None:
        assert doc["violation"] == {"kind": violation.kind, "witness": list(violation.witness),
                                    "message": str(violation)}
        assert (code, doc["integer_valued"], doc["kay_chartrand"]) == (1, None, None)
        return
    integer = all(v.denominator == 1 for row in rows for v in row)
    assert doc["integer_valued"] is integer
    if not integer:
        assert (code, doc["kay_chartrand"]) == (1, None)
        return
    m = MetricSpace.from_rows(labels, rows)
    first = next(([labels[i], labels[j]] for i, j in itertools.combinations(range(n), 2)
                  if rows[i][j] >= 2 and not oracles.has_between_point(m, i, j)), None)
    assert doc["kay_chartrand"] == {"pass": first is None, "witness": first}
    assert code == (0 if first is None else 1)
