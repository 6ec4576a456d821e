"""End-to-end CLI behavior: exit codes, JSON reports, file artifacts."""

from __future__ import annotations

import ast
import io
import itertools
import json
import random
import shlex
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import metricgraph
from metricgraph import (Graph, cycle_graph, dump_graph, dump_metric, geodesic_metric, parse_graph,
                         parse_metric, path_graph)
from metricgraph import cli
from metricgraph.cli import build_parser, main
from metricgraph.enumeration import HARD_CAP
from metricgraph.errors import ConditionFailed, Disconnected, MetricGraphError, MetricViolation, ParseError
from metricgraph.quadruples import ConjectureReport, check_graph
from metricgraph.realization import DistanceMismatch

import oracles
import randgen

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from checks import bfs, read_graph  # noqa: E402  the benchmark's own graph reader and BFS

EGYPTIAN_JSON = '{"points": ["x1", "x2", "x3"], "distances": [[0,3,4],[3,0,5],[4,5,0]]}'


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name: str, text: str) -> str:
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_egyptian(tmp_path, capsys):
    path = write(tmp_path, "egy.json", EGYPTIAN_JSON)
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    doc = json.loads(out)
    assert doc["metric_valid"] is True
    assert doc["integer_valued"] is True
    assert doc["kay_chartrand"] == {"pass": False, "witness": ["x1", "x2"]}


def test_validate_path_metric_passes(tmp_path, capsys):
    path = write(tmp_path, "p4.json", dump_metric(geodesic_metric(path_graph(4))))
    code, out, _ = run(capsys, "validate", path)
    assert code == 0
    assert json.loads(out)["kay_chartrand"]["pass"] is True


def test_validate_malformed_json(tmp_path, capsys):
    path = write(tmp_path, "bad.json", "{nope")
    code, out, _ = run(capsys, "validate", path)
    assert code == 2
    assert "error" in json.loads(out)


def test_validate_invalid_metric(tmp_path, capsys):
    path = write(tmp_path, "asym.json",
                 '{"points": ["a", "b"], "distances": [[0,1],[2,0]]}')
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    doc = json.loads(out)
    assert doc["metric_valid"] is False
    assert doc["violation"]["kind"] == "asymmetry"
    assert doc["violation"]["witness"] == [0, 1]


def test_validate_non_integer(tmp_path, capsys):
    path = write(tmp_path, "half.json",
                 '{"points": ["a", "b"], "distances": [[0,"1/2"],["1/2",0]]}')
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    doc = json.loads(out)
    assert doc["integer_valued"] is False
    assert doc["kay_chartrand"] is None


# ---------------------------------------------------------------------------
# realize / embed / ceil-embed
# ---------------------------------------------------------------------------

def test_realize_witness_and_fallback(tmp_path, capsys):
    path = write(tmp_path, "d2.json",
                 '{"points": ["a", "b"], "distances": [[0,2],[2,0]]}')
    code, out, _ = run(capsys, "realize", path)
    assert code == 1
    assert json.loads(out)["witness"] == ["a", "b"]

    code, out, _ = run(capsys, "embed", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["aux_count"] == 1
    assert doc["vertices"] == 3


def test_embed_egyptian_artifacts(tmp_path, capsys):
    metric = write(tmp_path, "egy.json", EGYPTIAN_JSON)
    out_graph = str(tmp_path / "host.json")
    out_map = str(tmp_path / "map.json")
    code, out, _ = run(capsys, "embed", metric, "--out", out_graph, "--map", out_map)
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == 12 and doc["aux_count"] == 9 and doc["verified"] is True

    host = parse_graph((tmp_path / "host.json").read_text())
    assert host.n == 12 and host.edge_count() == 12

    map_doc = json.loads((tmp_path / "map.json").read_text())
    assert map_doc["assignment"] == {"x1": "x1", "x2": "x2", "x3": "x3"}
    assert map_doc["aux_count"] == 9


def test_embed_egyptian_bytes(tmp_path, capsys):
    metric = write(tmp_path, "egy.json", EGYPTIAN_JSON)
    graph = (
        '{"edges": [[0,3],[0,5],[1,4],[1,8],[2,7],[2,11],[3,4],[5,6],[6,7],'
        '[8,9],[9,10],[10,11]],"vertices": ["x1","x2","x3",'
        '"__aux::x1::x2::1","__aux::x1::x2::2","__aux::x1::x3::1",'
        '"__aux::x1::x3::2","__aux::x1::x3::3","__aux::x2::x3::1",'
        '"__aux::x2::x3::2","__aux::x2::x3::3","__aux::x2::x3::4"]}'
    )
    assignment = '{"x1": "x1","x2": "x2","x3": "x3"}'
    code, out, _ = run(capsys, "embed", metric)
    assert code == 0
    assert out == (
        f'{{"assignment": {assignment},"aux_count": 9,"command": "embed",'
        f'"edges": 12,"graph": {graph},"map": null,"out": null,'
        f'"verified": true,"vertices": 12}}\n'
    )
    out_map = tmp_path / "map.json"
    code, _, _ = run(capsys, "embed", metric, "--map", str(out_map))
    assert code == 0
    assert out_map.read_text() == f'{{"assignment": {assignment},"aux_count": 9}}\n'


def test_embed_too_large_is_usage_error(tmp_path, capsys):
    path = write(tmp_path, "huge.json",
                 '{"points": ["a", "b"], "distances": [[0,"1e100000"],["1e100000",0]]}')
    for argv in (["embed", path], ["ceil-embed", path]):
        code, out, _ = run(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"] == "TooLarge"


def test_ceil_embed(tmp_path, capsys):
    path = write(tmp_path, "d23.json",
                 '{"points": ["a", "b"], "distances": [[0,"2.3"],["2.3",0]]}')
    code, out, _ = run(capsys, "ceil-embed", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == 4 and doc["edges"] == 3

    # The ceiling of the all-1/2 triangle is the all-1 triangle: the host
    # is a triangle on the three points, with no auxiliary vertex.
    halves = write(tmp_path, "halves.json",
                   '{"points": ["a", "b", "c"], "distances": '
                   '[[0,"1/2","1/2"],["1/2",0,"1/2"],["1/2","1/2",0]]}')
    code, out, _ = run(capsys, "ceil-embed", halves)
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == 3 and doc["aux_count"] == 0


def test_realize_non_integer_is_usage_error(tmp_path, capsys):
    path = write(tmp_path, "half.json",
                 '{"points": ["a", "b"], "distances": [[0,"1/2"],["1/2",0]]}')
    code, _, _ = run(capsys, "realize", path)
    assert code == 2


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def test_distances_c12(tmp_path, capsys):
    path = write(tmp_path, "c12.json", dump_graph(cycle_graph(12)))
    code, out, _ = run(capsys, "distances", path)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["points"]) == 12
    assert max(max(row) for row in doc["distances"]) == 6


def test_distances_single_edge(tmp_path, capsys):
    path = write(tmp_path, "k2.json",
                 '{"vertices": ["a", "b"], "edges": [[0, 1]]}')
    code, out, _ = run(capsys, "distances", path)
    assert code == 0
    assert json.loads(out)["distances"] == [[0, 1], [1, 0]]


def test_distances_disconnected(tmp_path, capsys):
    path = write(tmp_path, "iso.json", '{"vertices": ["a", "b"], "edges": []}')
    assert run(capsys, "distances", path) == (
        1, '{"error": "disconnected","message": "geodesic metric requires a connected graph"}\n',
        "error: geodesic metric requires a connected graph\n")


def test_distances_realize_round_trip(tmp_path, capsys):
    rng = random.Random(47)
    for trial in range(5):
        g = randgen.random_connected_graph(rng, rng.randint(2, 10))
        src = write(tmp_path, f"g{trial}.json", dump_graph(g))
        code, metric_text, _ = run(capsys, "distances", src)
        assert code == 0

        metric_file = write(tmp_path, f"m{trial}.json", metric_text)
        out_file = str(tmp_path / f"round{trial}.json")
        code, _, _ = run(capsys, "realize", metric_file, "--out", out_file)
        assert code == 0
        assert (tmp_path / f"round{trial}.json").read_text() == dump_graph(g)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_mb_c5(tmp_path, capsys):
    path = write(tmp_path, "c5.json", dump_graph(cycle_graph(5)))
    code, out, _ = run(capsys, "check", "--mb", path)
    assert code == 1
    assert json.loads(out)["witness"] == ["v0", "v1", "v3"]


def test_check_mb_graph_and_metric_inputs_agree(tmp_path, capsys):
    graph_file = write(tmp_path, "p6g.json", dump_graph(path_graph(6)))
    metric_file = write(tmp_path, "p6m.json", dump_metric(geodesic_metric(path_graph(6))))
    for path in (graph_file, metric_file):
        code, out, _ = run(capsys, "check", "--mb", path)
        assert code == 0
        assert json.loads(out)["pass"] is True


def test_check_plq_c4(tmp_path, capsys):
    path = write(tmp_path, "c4.json", dump_metric(geodesic_metric(cycle_graph(4))))
    code, out, _ = run(capsys, "check", "--plq", path, "v0", "v1", "v2", "v3")
    assert code == 0
    doc = json.loads(out)
    assert doc["s"] == 1 and doc["t"] == 1 and doc["equilateral"] is True


def test_check_plq_on_graph_subset(tmp_path, capsys):
    path = write(tmp_path, "c8.json", dump_graph(cycle_graph(8)))
    code, out, _ = run(capsys, "check", "--plq", path, "v0", "v2", "v4", "v6")
    assert code == 0
    doc = json.loads(out)
    assert doc["s"] == 2 and doc["equilateral"] is True

    code, out, _ = run(capsys, "check", "--plq", path, "v0", "v1", "v2", "v3")
    assert code == 1
    assert json.loads(out)["plq"] is False


def test_check_line(tmp_path, capsys):
    path = write(tmp_path, "line.json",
                 '{"points": ["a", "b", "c"], "distances": [[0,1,3],[1,0,2],[3,2,0]]}')
    code, out, _ = run(capsys, "check", "--line", path)
    assert code == 0
    assert json.loads(out)["coordinates"] == {"a": 0, "b": 1, "c": 3}

    c4 = write(tmp_path, "c4.json", dump_graph(cycle_graph(4)))
    code, out, _ = run(capsys, "check", "--line", c4)
    assert code == 1
    assert json.loads(out)["embeddable"] is False


def test_check_quad_ineq(tmp_path, capsys):
    path = write(tmp_path, "c4m.json", dump_metric(geodesic_metric(cycle_graph(4))))
    code, out, _ = run(capsys, "check", "--quad-ineq", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["lhs"] == 2 and doc["bound"] == 2 and doc["slack"] == 0
    assert doc["equality"] is True
    path = write(tmp_path, "p3m.json", dump_metric(geodesic_metric(path_graph(3))))
    code, out, _ = run(capsys, "check", "--quad-ineq", path)
    assert code == 2 and json.loads(out)["error"] == "WrongArity"


def test_check_quad_ineq_on_graph_with_int_distances(tmp_path, capsys):
    """Graph distances are ints, so p^2/8 must stay an exact rational."""
    c4 = Graph.from_edges(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3), (0, 3)])
    path = write(tmp_path, "c4g.json", dump_graph(c4))
    code, out, _ = run(capsys, "check", path, "a", "b", "c", "d", "--quad-ineq")
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == 2 and doc["equality"] is True


def test_check_reads_a_one_line_matrix(tmp_path, capsys):
    """`n` and all n*n entries on one line is a metric matrix, as in
    `validate`; the report matches the multi-line form, also for the
    one-point matrix `1 0`, which has the two tokens of a graph header."""
    for rows in (["0"], ["0 1 2", "1 0 1", "2 1 0"], ["0 1 2 1", "1 0 1 2", "2 1 0 1", "1 2 1 0"]):
        one_line = write(tmp_path, "one.txt", f"{len(rows)} {' '.join(rows)}\n")
        multi_line = write(tmp_path, "multi.txt", "\n".join([str(len(rows)), *rows]) + "\n")
        for check in ("--mb", "--line"):
            expected = run(capsys, "check", check, multi_line)
            assert expected[0] in (0, 1)
            assert run(capsys, "check", check, one_line) == expected
    bad = write(tmp_path, "bad.txt", "2 0 1 1\n")
    code, out, _ = run(capsys, "check", "--mb", bad)
    assert code == 2 and json.loads(out)["error"] == "ParseError"


def _reject_float(literal: str):
    raise AssertionError(f"float {literal} in output")


@pytest.mark.parametrize("kind", ["graph", "integer", "decimal"])
def test_no_float_in_any_output(tmp_path, capsys, kind):
    rng = random.Random(11)
    if kind == "graph":
        graph = write(tmp_path, "g.json", dump_graph(randgen.random_connected_graph(rng, 7)))
        code, out, _ = run(capsys, "distances", graph)
        assert code == 0
        json.loads(out, parse_float=_reject_float)
        metric = write(tmp_path, "m.json", out)
    elif kind == "integer":
        metric = write(tmp_path, "m.json", dump_metric(
            randgen.random_subset_metric(rng, 6, min_points=4)))
        graph = metric
    else:
        metric = write(tmp_path, "m.json", json.dumps({
            "points": ["a", "b", "c", "d"],
            "distances": [[0, "1.25", "1.5", 1.75], ["1.25", 0, "13/10", "1.9"],
                          ["1.5", "13/10", 0, 1], [1.75, "1.9", 1, 0]]}))
        graph = metric
    labels = json.loads((tmp_path / "m.json").read_text())["points"][:4]
    commands = [
        ("validate", metric), ("embed", metric), ("ceil-embed", metric),
        ("check", "--mb", graph), ("check", "--line", graph),
        ("check", "--plq", graph, *labels), ("check", "--quad-ineq", graph, *labels),
    ]
    for argv in commands:
        code, out, _ = run(capsys, *argv)
        assert code in (0, 1, 2), argv
        json.loads(out, parse_float=_reject_float)


def test_values_past_the_digit_cap_are_typed_errors(tmp_path, capsys):
    """Each input used to end in a 4300-digit int-to-str traceback."""
    huge, wide = "1e5000", "1" + "0" * 3000
    asym = write(tmp_path, "asym.json",
                 '{"points": ["a", "b"], "distances": [[0, "1e5000"], ["2e5000", 0]]}')
    line = write(tmp_path, "line.json",
                 f'{{"points": ["a", "b"], "distances": [[0, "{huge}"], ["{huge}", 0]]}}')
    quad = write(tmp_path, "quad.json", json.dumps(
        {"points": list("abcd"), "distances": [[0 if i == j else wide for j in range(4)]
                                               for i in range(4)]}))
    for argv in (("validate", asym), ("check", "--line", line), ("check", "--quad-ineq", quad)):
        code, out, _ = run(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out)["error"] == "TooLarge"
    long_int = write(tmp_path, "g.json", '{"vertices": ["a", "b"], "edges": [[0, 1' + "0" * 5000 + ']]}')
    for argv in (("distances", long_int), ("check", "--mb", long_int)):
        code, out, _ = run(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out)["error"] == "ParseError"


def test_int_past_the_digit_limit_reads_alike_in_every_command(tmp_path, capsys):
    """A metric file's int literal beyond Python's 4300-digit limit is
    invalid JSON, in the same words, whichever command reads it."""
    path = write(tmp_path, "m.json", '{"points": ["a", "b"], "distances": [[0, 1' + "0" * 5000 + '], [1, 0]]}')
    docs = []
    for argv in (("validate", path), ("embed", path), ("check", "--mb", path)):
        code, out, _ = run(capsys, *argv)
        assert code == 2, argv
        docs.append(json.loads(out))
    assert docs[0] == docs[1] == docs[2]
    assert docs[0]["error"] == "ParseError" and docs[0]["message"].startswith("invalid JSON: ")


def test_json_with_a_byte_order_mark_reads_alike_in_check_and_validate(tmp_path, capsys):
    """`check` used to sniff past no BOM and read the file as a matrix."""
    path = write(tmp_path, "bom.json", "\ufeff" + EGYPTIAN_JSON)
    docs = []
    for argv in (("check", "--mb", path), ("validate", path)):
        code, out, _ = run(capsys, *argv)
        assert code == 2, argv
        docs.append(json.loads(out))
    assert docs[0] == docs[1]
    assert docs[0]["error"] == "ParseError" and docs[0]["message"].startswith("invalid JSON: Unexpected UTF-8 BOM")


def test_deeply_nested_json_is_a_typed_error(tmp_path, capsys):
    """The decoder's RecursionError used to end each command in a
    traceback with the domain-negative exit code 1."""
    deep = "[" * 200_000 + "]" * 200_000
    bare = write(tmp_path, "deep.json", deep)
    points = write(tmp_path, "points.json", '{"points": ' + deep + "}")
    for argv in (("validate", bare), ("distances", bare), ("embed", bare),
                 ("check", "--mb", points)):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out)["error"] == "ParseError", argv
        assert "Traceback" not in err, argv


def test_matrix_size_past_the_digit_limit_squared_is_a_parse_error(tmp_path, capsys):
    """A 4000-digit size token parses, but its square has about 8000 digits,
    past Python's int-to-str limit: the entry-count message used to print
    it and end in a ValueError traceback with exit 1."""
    path = write(tmp_path, "huge.txt", "9" * 4000 + " 0")
    code, out, err = run(capsys, "validate", "--format", "text", path)
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"
    assert len(out.encode()) < 1024
    assert "Traceback" not in err


def test_out_of_memory_on_input_is_too_large(tmp_path, capsys, monkeypatch):
    """A MemoryError while loading or parsing is one typed error document."""
    import metricgraph.cli as cli

    def exhausted(path):
        raise MemoryError

    encode = cli.json_text
    encoded = []

    def exhausted_once(doc):
        encoded.append(doc)
        if len(encoded) == 1:
            raise MemoryError
        return encode(doc)

    metric = write(tmp_path, "e.json", EGYPTIAN_JSON)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_read_input", exhausted)
        for argv in (("validate", metric), ("distances", metric), ("check", "--mb", metric)):
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert json.loads(out) == {"error": "TooLarge", "message": "out of memory on this input"}, argv
            assert "Traceback" not in err, argv
    # Encoding the success document runs out of memory: still one error document.
    monkeypatch.setattr(cli, "json_text", exhausted_once)
    code, out, err = run(capsys, "embed", metric)
    assert encoded[0]["command"] == "embed" and encoded[0]["verified"] is True
    assert code == 2
    assert json.loads(out) == {"error": "TooLarge", "message": "out of memory on this input"}
    assert "Traceback" not in err


def test_check_json_array_is_not_read_as_a_matrix(tmp_path, capsys):
    path = write(tmp_path, "arr.json", "[" + EGYPTIAN_JSON + "]")
    code, out, _ = run(capsys, "check", "--mb", path)
    assert code == 2
    assert json.loads(out) == {"error": "ParseError",
                               "message": "JSON input is neither a metric nor a graph document"}


def test_check_bad_labels(tmp_path, capsys):
    path = write(tmp_path, "c4m.json", dump_metric(geodesic_metric(cycle_graph(4))))
    code, _, _ = run(capsys, "check", "--plq", path, "v0", "v1", "v2", "zz")
    assert code == 2


def test_unhashable_vertex_label_is_a_parse_error(tmp_path, capsys):
    path = write(tmp_path, "g.json", '{"vertices": [["a"], "b"], "edges": [[0, 1]]}')
    for argv in (("distances", path), ("check", "--mb", path)):
        code, out, _ = run(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out)["error"] == "ParseError"


def test_unreadable_input_is_a_typed_error(tmp_path, capsys, monkeypatch):
    """Non-UTF-8 bytes in a file or on stdin, and a directory given as the
    input, used to end in a traceback with the domain-negative exit 1."""
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe{\x00}\x00")
    cases = [(("validate", str(utf16)), "ParseError"),
             (("check", "--mb", str(utf16)), "ParseError"),
             (("validate", str(tmp_path)), "IsADirectoryError"),
             (("distances", str(tmp_path)), "IsADirectoryError"),
             (("validate", "-"), "ParseError")]
    for argv, error in cases:
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}"), encoding="utf-8"))
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out)["error"] == error, argv
        assert "Traceback" not in err, argv


def test_unwritable_artifact_is_a_typed_error(tmp_path, capsys):
    metric = write(tmp_path, "e.json", EGYPTIAN_JSON)
    for target, error in ((str(tmp_path), "IsADirectoryError"),
                          (str(tmp_path / "e.json" / "out.json"), "NotADirectoryError")):
        for flag in ("--out", "--map"):
            code, out, _ = run(capsys, "embed", metric, flag, target)
            assert code == 2, (flag, target)
            assert json.loads(out)["error"] == error, (flag, target)


def test_error_messages_cap_echoed_input(tmp_path, capsys):
    """A 200 000-element list as a point label, a distance entry or an edge,
    and a 200 000-token header or size token, used to be echoed whole."""
    big = list(range(200_000))
    label = write(tmp_path, "label.json", json.dumps({"points": [big, "b"], "distances": [[0, 1], [1, 0]]}))
    entry = write(tmp_path, "entry.json", json.dumps({"points": ["a", "b"], "distances": [[0, big], [1, 0]]}))
    edge = write(tmp_path, "edge.json", json.dumps({"vertices": ["a", "b"], "edges": [big]}))
    header = write(tmp_path, "header.txt", "1 " * 200_000)
    size = write(tmp_path, "size.txt", "x" * 200_000)
    for argv in (("validate", label), ("check", "--mb", label), ("validate", entry),
                 ("distances", edge), ("check", "--mb", edge),
                 ("distances", "--format", "text", header), ("validate", "--format", "text", size)):
        code, out, _ = run(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out)["error"] == "ParseError", argv
        assert len(out.encode()) < 1024, argv


def test_json_dumps_is_called_only_by_the_encoder():
    """Every JSON document the package writes goes through
    `metric.json_text`, so the byte format behind the golden report
    sha256s is written down in one place."""
    callers = []

    def visit(node: ast.AST, module: str, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Attribute) and node.attr == "dumps"
                or isinstance(node, ast.ImportFrom) and node.module == "json"):
            callers.append((module, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path in sorted(Path(metricgraph.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, "<module>")
    assert callers == [("metric.py", "json_text")]


def test_only_emit_writes_stdout_and_only_main_writes_stderr():
    """`cli.main` is the one writer: it hands the document to `_emit` and
    writes the summary line itself, so every command's output is one
    document on stdout and one line on stderr."""
    writers = []

    def visit(node: ast.AST, module: str, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "sys" and node.attr.strip("_") in ("stdout", "stderr")):
            writers.append((module, owner, node.attr.strip("_")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            writers.append((module, owner, "print"))
        for child in ast.iter_child_nodes(node):
            visit(child, module, owner)

    for path in sorted(Path(metricgraph.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, "<module>")
    assert writers == [("cli.py", "_emit", "stdout"), ("cli.py", "main", "stderr")]


def test_readme_cli_examples_parse():
    """Each `metricgraph ...` line of README's CLI block is a valid command line."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("metricgraph ")]
    subcommands = set()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        subcommands.add(build_parser().parse_args(argv).subcommand)
    assert subcommands == {"validate", "realize", "embed", "ceil-embed", "distances", "check", "search"}


def _one_c44_violation(conjecture_id, max_n, max_violations, jobs):
    """A report with the smallest recorded C44 counterexample (n = 8),
    without the seconds-long sweep that finds it."""
    g = Graph.from_edges([f"v{i}" for i in range(8)],
                         [(0, 6), (0, 7), (1, 5), (1, 7), (2, 4), (2, 6), (3, 4), (3, 5)])
    return ConjectureReport(conjecture_id, max_n, 1, tuple(check_graph(conjecture_id, g)))


def _unverified(m, g):
    """A `verify_map` that reports the first pair one unit too far apart."""
    x, y = m.labels[:2]
    return DistanceMismatch((x, y), m.d(x, y), m.d(x, y) + 1)


# Cases that run with a library function patched.  The unverified embed
# spells out the default `--format json` to tell it from `embed {egy}`.
_PATCHES = {
    "search --conjecture 4.4 --max-n 8": ("metricgraph.cli.search", _one_c44_violation),
    "embed {egy} --format json": ("metricgraph.realization.verify_map", _unverified),
}


@pytest.mark.parametrize("argv, expected", [
    ("validate {p4}", 0), ("validate {egy}", 1), ("validate {asym}", 1),
    ("validate {half}", 1), ("validate {bad}", 2),
    ("realize {p4}", 0), ("realize {d2}", 1), ("realize {d2} --fallback-embed", (2, "ParseError")),
    ("realize {half}", 2), ("realize {p4} --out {dir}", 2),
    ("embed {egy}", 0), ("embed {egy} --require-onto", (2, "ParseError")), ("embed {huge}", 2),
    ("embed {asym}", 2), ("embed {egy} --out {dir}", 2), ("embed {egy} --map {dir}", 2),
    ("ceil-embed {egy}", 0), ("ceil-embed {egy} --require-onto", (2, "ParseError")), ("ceil-embed {huge}", 2),
    ("ceil-embed {egy} --out {dir}", 2),
    ("distances {c5}", 0), ("distances --format text {c5txt}", 0), ("distances {iso}", 1),
    ("distances {bad}", 2),
    ("check --mb {p4}", 0), ("check --mb {c5}", 1), ("check --mb {iso}", 1),
    ("check --line {p4}", 0), ("check --line {c5}", 1),
    ("check --plq {c8} v0 v2 v4 v6", 0), ("check --plq {c8} v0 v1 v2 v3", 1),
    ("check --quad-ineq {p4}", 0), ("check --quad-ineq {p4} a", 2),
    ("search --conjecture 4.2 --max-n 5", 0), ("search --conjecture 4.4 --max-n 8", 1),
    ("search --conjecture 9.9", 2),
    ("search --conjecture 4.2 --max-n x", 2), ("embed {egy} --bogus", 2), ("check {p4}", 2), ("", 2),
    ("embed {egy} --format json", (2, "InternalVerificationFailure")),
    ("search --conjecture 4.4 --max-n 2", (2, "TooSmall")),
    ("realize {p4} --require-onto", (2, "ParseError")),
    ("check --format text --mb {p3}", (2, "ParseError")),
])
def test_output_protocol(tmp_path, capsys, monkeypatch, argv, expected):
    """Whatever the exit code, argparse usage errors and a failed
    self-verification included, stdout is exactly one document and stderr
    exactly one summary line.  An `expected` pair also names the error."""
    files = {
        "p4": dump_metric(geodesic_metric(path_graph(4))),
        "egy": EGYPTIAN_JSON,
        "asym": '{"points": ["a", "b"], "distances": [[0,1],[2,0]]}',
        "half": '{"points": ["a", "b"], "distances": [[0,"1/2"],["1/2",0]]}',
        "d2": '{"points": ["a", "b"], "distances": [[0,2],[2,0]]}',
        "huge": '{"points": ["a", "b"], "distances": [[0,"1e100000"],["1e100000",0]]}',
        "bad": "{nope",
        "c5": dump_graph(cycle_graph(5)),
        "c5txt": dump_graph(cycle_graph(5), "text"),
        "c8": dump_graph(cycle_graph(8)),
        "iso": '{"vertices": ["a", "b"], "edges": []}',
        "p3": "3 0 1 2 1 0 1 2 1 0\n",
    }
    paths = {name: write(tmp_path, f"{name}.in", text) for name, text in files.items()}
    if argv in _PATCHES:
        monkeypatch.setattr(*_PATCHES[argv])
    expected_code, expected_error = expected if isinstance(expected, tuple) else (expected, None)
    code, out, err = run(capsys, *argv.format(dir=tmp_path, **paths).split())
    assert code == expected_code
    assert err.endswith("\n") and err.count("\n") == 1, err
    if argv.startswith("distances --format text"):
        assert parse_metric(out, "text").n == 5
    else:
        doc = json.loads(out)
        assert expected_error is None or doc["error"] == expected_error


_EMPTY_METRIC = '{"points": [], "distances": []}'


def _parse_error(message: str) -> tuple[int, str, str]:
    return 2, json.dumps({"error": "ParseError", "message": message}, separators=(",", ": ")) + "\n", (
        f"error: {message}\n")


@pytest.mark.parametrize("argv, stdin, expected", [
    ("validate --format text -", "", _parse_error("empty matrix input")),
    ("validate --format text -", "0", _parse_error("size must be >= 1, got 0")),
    ("validate -", "[]", _parse_error("metric JSON must be an object")),
    ("validate -", '{"points": 1, "distances": []}', _parse_error('"points" and "distances" must be arrays')),
    ("validate -", '{"points": ["a", "b"], "distances": [[0, 1], [1]]}',
     _parse_error("distance table must be square")),
    ("validate -", _EMPTY_METRIC, (
        1, '{"command": "validate","integer_valued": null,"kay_chartrand": null,"metric_valid": false,'
           '"violation": {"kind": "shape","message": "a metric space needs at least one point","witness": []}}\n',
        "validate: not a metric (shape at ())\n")),
    ("embed -", _EMPTY_METRIC, (
        2, '{"error": "metric_violation","kind": "shape","message": "a metric space needs at least one point",'
           '"witness": []}\n',
        "error: a metric space needs at least one point\n")),
    ("distances --format text -", "", _parse_error("empty graph input")),
    ("distances --format text -", "a b\n", _parse_error("bad header 'a b'")),
    ("distances --format text -", "2 1\n0 x\n",
     _parse_error("bad edge line: invalid literal for int() with base 10: 'x'")),
    ("check --mb -", "  \n\t\n", _parse_error("cannot tell metric matrix from graph text input")),
    ("check --mb -", "3 2\n0 1\n1 2\n", (
        0, '{"check": "mb","command": "check","pass": true,"witness": null}\n',
        "check: betweenness class membership holds\n")),
])
def test_input_errors_on_stdin(capsys, monkeypatch, argv, stdin, expected):
    """Each input-reading branch answers a file on stdin with one exact
    document and one exact summary line; the last case is a text graph
    that `check` tells from a matrix by its header."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert run(capsys, *argv.split()) == expected


@pytest.mark.parametrize("build, message", [
    (lambda: Graph(("a", "b"), ((1,),)), "2 vertices but 1 adjacency rows"),
    (lambda: cycle_graph(2), "a cycle needs at least 3 vertices, got 2"),
    (lambda: check_graph("C99", path_graph(3)), "unknown conjecture id 'C99'; use C42 or C44"),
    (lambda: parse_metric("1\n0\n", "matrix"), "unknown metric format 'matrix'"),
    (lambda: dump_metric(geodesic_metric(path_graph(2)), "matrix"), "unknown metric format 'matrix'"),
    (lambda: parse_graph("1 0\n", "matrix"), "unknown graph format 'matrix'"),
    (lambda: dump_graph(path_graph(2), "matrix"), "unknown graph format 'matrix'"),
])
def test_library_input_errors(build, message):
    """The library's own input checks that no CLI path reaches."""
    with pytest.raises(ParseError) as exc:
        build()
    assert str(exc.value) == message


def _error_classes(base: type = MetricGraphError) -> list[type]:
    return [base, *(c for sub in base.__subclasses__() for c in _error_classes(sub))]


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_every_typed_error_is_one_document(tmp_path, capsys, monkeypatch, cls):
    """Any `MetricGraphError` a command raises leaves one document named
    by `main`'s clause for it: the two special documents, or the class
    name with exit 2.  A class that `main` leaves out fails here."""
    if cls is MetricViolation:
        exc, code, name = cls("triangle", (0, 1, 2), "triangle fails"), 2, "metric_violation"
    elif cls is Disconnected:
        exc, code, name = cls("not connected"), 1, "disconnected"
    else:
        exc = cls(("a", "b")) if cls is ConditionFailed else cls("raised by the command")
        code, name = 2, cls.__name__

    def raise_it(args):
        raise exc

    monkeypatch.setattr("metricgraph.cli.cmd_validate", raise_it)
    got, out, err = run(capsys, "validate", write(tmp_path, "p.json", "{}"))
    assert got == code
    assert json.loads(out)["error"] == name
    assert err == f"error: {exc}\n"


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_c42_counts(capsys):
    code, out, _ = run(capsys, "search", "--conjecture", "4.2", "--max-n", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["graphs_checked"] == 29
    assert doc["violations"] == []


def test_search_deterministic_across_jobs(capsys):
    outputs = []
    for jobs in ("1", "2", "1"):
        code, out, _ = run(capsys, "search", "--conjecture", "4.4",
                           "--max-n", "5", "--jobs", jobs)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_search_bad_conjecture(capsys):
    code, _, _ = run(capsys, "search", "--conjecture", "9.9")
    assert code == 2


@pytest.mark.parametrize("flag, value", [
    ("--jobs", "0"), ("--jobs", "-2"), ("--max-violations", "-1"), ("--max-violations", "0"),
])
def test_search_rejects_nonpositive_counts(capsys, flag, value):
    code, out, _ = run(capsys, "search", "--conjecture", "4.4", "--max-n", "4", flag, value)
    assert code == 2
    assert json.loads(out)["error"] == "TooSmall"


def test_search_max_n_guard(capsys):
    code, _, _ = run(capsys, "search", "--conjecture", "4.2", "--max-n", "10")
    assert code == 2
    code, out, _ = run(capsys, "search", "--conjecture", "4.4", "--max-n", "3")
    assert code == 2
    doc = json.loads(out)
    assert doc["error"] == "TooSmall" and "max_n >= 4" in doc["message"]


@pytest.mark.parametrize("conjecture, smallest", [("4.2", 3), ("4.4", 4)])
def test_search_too_large_names_the_conjectures_range(capsys, conjecture, smallest):
    """Above the cap, the message gives the conjecture's own smallest n."""
    code, out, _ = run(capsys, "search", "--conjecture", conjecture, "--max-n", str(HARD_CAP + 1))
    assert code == 2
    assert json.loads(out) == {"error": "TooLarge",
                               "message": f"search needs {smallest} <= max_n <= {HARD_CAP}, got {HARD_CAP + 1}"}


def test_missing_file(capsys):
    code, _, _ = run(capsys, "validate", "/does/not/exist.json")
    assert code == 2


def test_check_requires_mode(tmp_path, capsys):
    path = write(tmp_path, "c4.json", dump_graph(cycle_graph(4)))
    code, out, _ = run(capsys, "check", path)
    assert code == 2
    assert json.loads(out)["error"] == "ParseError"


# ---------------------------------------------------------------------------
# Constructions and graph commands against independent oracles
# ---------------------------------------------------------------------------

def _host_distances(capsys, host: Path, points: tuple[str, ...], *argv: str) -> tuple[int, dict, list | None]:
    """Run one construction with `--out host`, then measure its points (each
    the host vertex with its own label) by the benchmark's reader and BFS."""
    host.unlink(missing_ok=True)
    code, out, _ = run(capsys, *argv, "--out", str(host))
    if code:
        return code, json.loads(out), None
    labels, adj = read_graph(host.read_text())
    at = [labels.index(p) for p in points]
    return code, json.loads(out), [[bfs(adj, s)[t] for t in at] for s in at]


def test_constructions_match_the_oracles(tmp_path, capsys):
    """`realize` and `embed` hosts keep every distance of graph metrics,
    [a, 2a] tables and subset metrics, and `ceil-embed` hosts satisfy
    d <= d_G < d + 1 on decimal tables; `realize` fails exactly at the
    first pair at distance >= 2 with no point between."""
    rng = random.Random(30)
    metrics = [geodesic_metric(randgen.random_connected_graph(rng, rng.randint(2, 7))) for _ in range(5)]
    metrics += [randgen.random_int_metric_rejection(rng, rng.randint(2, 6), a, 2 * a) for a in (1, 1, 2, 3, 5)]
    metrics += [randgen.random_subset_metric(rng, 6) for _ in range(5)]
    host = tmp_path / "host.json"
    for k, m in enumerate(metrics):
        src = write(tmp_path, f"m{k}.json", dump_metric(m))
        table = [list(row) for row in m.dist]
        witness = next(([m.labels[i], m.labels[j]] for i, j in itertools.combinations(range(m.n), 2)
                        if m.dist[i][j] >= 2 and not oracles.has_between_point(m, i, j)), None)
        code, doc, got = _host_distances(capsys, host, m.labels, "realize", src)
        assert (code, doc.get("witness"), got) == ((0, None, table) if witness is None else (1, witness, None))
        code, _, got = _host_distances(capsys, host, m.labels, "embed", src)
        assert (code, got) == (0, table)
    for k in range(8):
        m = randgen.random_decimal_metric(rng, 6)
        src = write(tmp_path, f"q{k}.json", dump_metric(m))
        code, _, got = _host_distances(capsys, host, m.labels, "ceil-embed", src)
        assert code == 0
        assert all(d <= d_g < d + 1 for row, host_row in zip(m.dist, got) for d, d_g in zip(row, host_row))


def test_graph_commands_match_the_oracles(tmp_path, capsys):
    """`distances` equals the simple-path oracle (exit 1 when a pair has no
    path), and `check --mb`, `--line` and `--plq` equal the brute-force
    betweenness, sign and pattern oracles."""
    rng = random.Random(31)
    for k in range(12):
        n = rng.randint(1, 7)
        g = Graph.from_edges([f"v{i}" for i in range(n)],
                             [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4])
        brute = oracles.brute_distance_matrix(g)
        code, out, _ = run(capsys, "distances", write(tmp_path, f"g{k}.json", dump_graph(g)))
        if any(None in row for row in brute):
            assert (code, json.loads(out)["error"]) == (1, "disconnected")
        else:
            assert (code, json.loads(out)["distances"]) == (0, brute)
    metrics = [randgen.random_line_subset_metric(rng, 3, 7) for _ in range(5)]
    metrics += [randgen.random_subset_metric(rng, 6) for _ in range(10)]
    for k, m in enumerate(metrics):
        src = write(tmp_path, f"m{k}.json", dump_metric(m))
        witness = oracles.first_mb_violation(m)
        code, out, _ = run(capsys, "check", "--mb", src)
        assert (code, json.loads(out)["witness"]) == ((0, None) if witness is None else (1, list(witness)))
        signs = oracles.line_embed_by_signs(m)
        code, out, _ = run(capsys, "check", "--line", src)
        coords = json.loads(out)["coordinates"]
        assert (code, coords is None) == (int(signs is None), signs is None)
        if coords is not None:  # unique up to a shift and a reflection
            x = {p: Fraction(v) - Fraction(coords[m.labels[0]]) for p, v in coords.items()}
            assert x in (signs, {p: -v for p, v in signs.items()})
    # Four points spaced s, t, s, t around a cycle of length 2(s + t) form a
    # pseudo-linear quadruple; random 4-point subset metrics mostly do not.
    quads = [randgen.random_subset_metric(rng, 4, min_points=4) for _ in range(8)]
    for s, t in ((1, 1), (1, 2), (2, 3)):
        quads.append(geodesic_metric(cycle_graph(2 * (s + t))).restrict(
            [f"v{i}" for i in (0, s, s + t, 2 * s + t)]))
    for k, m in enumerate(quads):
        orderings = oracles.plq_pattern_orderings(m)
        code, out, _ = run(capsys, "check", "--plq", write(tmp_path, f"quad{k}.json", dump_metric(m)))
        doc = json.loads(out)
        assert (code, doc["plq"]) == (int(not orderings), bool(orderings))
        if orderings:
            a, b, c, _ = doc["ordering"]
            assert tuple(doc["ordering"]) in orderings and (doc["s"], doc["t"]) == (m.d(a, b), m.d(b, c))
