"""End-to-end CLI behavior: exit codes, JSON reports, file artifacts."""

from __future__ import annotations

import json
import random

import pytest

from metricgraph import Graph, cycle_graph, dump_graph, dump_metric, geodesic_metric, parse_graph, path_graph
from metricgraph.cli import main

import randgen

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

    code, out, _ = run(capsys, "realize", path, "--fallback-embed")
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


def test_ceil_embed(tmp_path, capsys):
    path = write(tmp_path, "d23.json",
                 '{"points": ["a", "b"], "distances": [[0,"2.3"],["2.3",0]]}')
    code, out, _ = run(capsys, "ceil-embed", path)
    assert code == 0
    doc = json.loads(out)
    assert doc["vertices"] == 4 and doc["edges"] == 3


def test_require_onto(tmp_path, capsys):
    metric = write(tmp_path, "egy.json", EGYPTIAN_JSON)
    code, out, _ = run(capsys, "embed", metric, "--require-onto")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "not_onto"
    assert doc["unmapped_vertices"] == 9  # the auxiliary vertices

    p4 = write(tmp_path, "p4.json", dump_metric(geodesic_metric(path_graph(4))))
    code, _, _ = run(capsys, "realize", p4, "--require-onto")
    assert code == 0

    # Ceiling distortion is not an onto failure: the host is a triangle on
    # the three points, with no auxiliary vertex.
    halves = write(tmp_path, "halves.json",
                   '{"points": ["a", "b", "c"], "distances": '
                   '[[0,"1/2","1/2"],["1/2",0,"1/2"],["1/2","1/2",0]]}')
    code, out, _ = run(capsys, "ceil-embed", halves, "--require-onto")
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
    code, out, _ = run(capsys, "distances", path)
    assert code == 1
    assert json.loads(out)["error"] == "disconnected"


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


def test_check_quad_ineq_on_graph_with_int_distances(tmp_path, capsys):
    """Graph distances are ints, so p^2/8 must stay an exact rational."""
    c4 = Graph.from_edges(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3), (0, 3)])
    path = write(tmp_path, "c4g.json", dump_graph(c4))
    code, out, _ = run(capsys, "check", path, "a", "b", "c", "d", "--quad-ineq")
    assert code == 0
    doc = json.loads(out)
    assert doc["bound"] == 2 and doc["equality"] is True


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


def test_check_bad_labels(tmp_path, capsys):
    path = write(tmp_path, "c4m.json", dump_metric(geodesic_metric(cycle_graph(4))))
    code, _, _ = run(capsys, "check", "--plq", path, "v0", "v1", "v2", "zz")
    assert code == 2


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
    with pytest.raises(SystemExit) as exc:
        main(["search", "--conjecture", "4.4", "--max-n", "4", flag, value])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err


def test_search_max_n_guard(capsys):
    code, _, _ = run(capsys, "search", "--conjecture", "4.2", "--max-n", "9")
    assert code == 2


def test_missing_file(capsys):
    code, _, _ = run(capsys, "validate", "/does/not/exist.json")
    assert code == 2


def test_check_requires_mode(tmp_path, capsys):
    path = write(tmp_path, "c4.json", dump_graph(cycle_graph(4)))
    with pytest.raises(SystemExit):
        main(["check", path])
