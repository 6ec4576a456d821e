"""Graphs, BFS geodesics, shapes, and induced subgraphs."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricgraph import (
    Disconnected,
    EmptySubset,
    Graph,
    ParseError,
    TooLarge,
    UnknownLabel,
    between,
    classify_shape,
    cycle_graph,
    dump_graph,
    geodesic_distances,
    geodesic_metric,
    induced_subgraph,
    is_connected,
    parse_graph,
    path_graph,
    shortest_path,
)
from metricgraph.metric import find_metric_violation

import oracles
import randgen


def two_isolated() -> Graph:
    return Graph.from_edges(["a", "b"], [])


# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_from_edges_validation():
    with pytest.raises(ParseError, match="self-loop"):
        Graph.from_edges(["a", "b"], [(0, 0)])
    for twice in ([(0, 1), (1, 0)], [(0, 1), (0, 1)]):
        with pytest.raises(ParseError, match="duplicate edge"):
            Graph.from_edges(["a", "b"], twice)
    with pytest.raises(ParseError):
        Graph.from_edges(["a", "b"], [(0, 2)])
    with pytest.raises(ParseError):
        Graph.from_edges(["a", "b"], [(-1, 1)])
    with pytest.raises(ParseError):
        Graph.from_edges(["a", "a"], [(0, 1)])
    with pytest.raises(ParseError):
        Graph.from_edges([], [])
    with pytest.raises(ParseError, match="nonempty strings"):
        Graph.from_edges([["a"], "b"], [(0, 1)])
    with pytest.raises(ParseError, match="integer indices"):
        Graph.from_edges(["a", "b"], [(True, False)])
    for entry in (5, [0], (0, 1, 2), "01", {0, 1}):
        with pytest.raises(ParseError):
            Graph.from_edges(["a", "b", "c"], [entry])


def test_direct_construction_checks_symmetry():
    for adjacency in (
        ((1,), ()),                    # asymmetric
        ((2, 1), (0,), (0,)),          # unsorted
        ((1, 1), (0,)),                # duplicate neighbour
        ((0, 1), (0,)),                # self-loop
        ((True,), (0,)),               # bool neighbour
        ((2,), (0,)),                  # out of range
        ((-1,), (0,)),                 # negative
        ((1,), ("x",)),                # non-int neighbour
    ):
        with pytest.raises(ParseError):
            Graph(("a", "b", "c")[:len(adjacency)], adjacency)


def test_edges_sorted():
    g = Graph.from_edges(["a", "b", "c"], [(2, 0), (1, 0)])
    assert g.edges() == [(0, 1), (0, 2)]
    assert g.edge_count() == 2
    assert g.has_edge(0, 2) and not g.has_edge(1, 2)


# ---------------------------------------------------------------------------
# Geodesic distances
# ---------------------------------------------------------------------------

def test_c12_distances_frozen():
    d = geodesic_distances(cycle_graph(12))
    assert d[0][5] == 5
    assert d[0][7] == 5  # min(7, 12-7)
    assert max(v for row in d for v in row) == 6


def test_c12_matches_path_enumeration_oracle():
    g = cycle_graph(12)
    assert [list(r) for r in geodesic_distances(g)] == oracles.brute_distance_matrix(g)


def test_single_edge_and_isolated():
    g = Graph.from_edges(["a", "b"], [(0, 1)])
    assert geodesic_distances(g) == ((0, 1), (1, 0))
    d = geodesic_distances(two_isolated())
    assert d[0][1] is None and d[1][0] is None and d[0][0] == 0


def test_distances_match_oracle_on_enumerated_graphs():
    """The one BFS, reached through a `Graph` and through the sweep
    kernels' neighbour bitmasks, against exhaustive path search on every
    connected class with n <= 7."""
    from metricgraph import quadruples

    for n in range(1, 8):
        for g, (_, nbr) in zip(oracles.class_graphs(n), oracles.class_nodes(n)):
            brute = oracles.brute_distance_matrix(g)
            assert [list(r) for r in geodesic_distances(g)] == brute
            assert quadruples._distance_rows(n, nbr) == brute, g


def test_is_connected():
    assert is_connected(cycle_graph(12))
    assert not is_connected(two_isolated())
    assert is_connected(Graph.from_edges(["a"], []))


def test_geodesic_metric_is_a_metric():
    """The BFS rows that the sweep checkers read unvalidated pass the full
    axiom check for every connected class with n <= 7."""
    from metricgraph.graph import connected_distances

    rng = random.Random(11)
    for _ in range(20):
        g = randgen.random_connected_graph(rng, rng.randint(2, 9))
        m = geodesic_metric(g)  # built from the BFS rows without the axiom scan
        assert find_metric_violation(m.dist) is None
    for n in range(1, 8):
        for g in oracles.class_graphs(n):
            rows = connected_distances(g)
            assert find_metric_violation(rows) is None
            assert geodesic_metric(g).dist == rows
    with pytest.raises(Disconnected):
        geodesic_metric(two_isolated())


def test_geodesic_metric_stops_after_the_first_bfs_when_disconnected(monkeypatch):
    from metricgraph import graph as graph_module

    calls = []
    bfs = graph_module._bfs_from

    def counted(g, src):
        calls.append(src)
        return bfs(g, src)

    monkeypatch.setattr(graph_module, "_bfs_from", counted)
    with pytest.raises(Disconnected):
        geodesic_metric(Graph.from_edges([f"v{i}" for i in range(50)], []))
    assert calls == [0]


def test_shortest_path_deterministic_and_between():
    g = cycle_graph(6)
    p = shortest_path(g, "v0", "v3")
    assert p == ["v0", "v1", "v2", "v3"]  # lowest-index tie-break
    m = geodesic_metric(g)
    for y in p[1:-1]:
        assert between(m, "v0", y, "v3")
    with pytest.raises(Disconnected):
        shortest_path(two_isolated(), "a", "b")


# ---------------------------------------------------------------------------
# Induced subgraphs and shapes
# ---------------------------------------------------------------------------

def test_induced_subgraph_examples():
    evens = induced_subgraph(cycle_graph(8), ["v0", "v2", "v4", "v6"])
    assert evens.edge_count() == 0 and evens.n == 4

    c4 = cycle_graph(4)
    assert induced_subgraph(c4, list(c4.vertex_labels)) == c4

    p4 = Graph.from_edges(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3)])
    ab = induced_subgraph(p4, ["a", "b"])
    assert ab.edges() == [(0, 1)]

    with pytest.raises(UnknownLabel):
        induced_subgraph(c4, ["v0", "zz"])
    with pytest.raises(EmptySubset):
        induced_subgraph(c4, [])


def test_induced_subgraph_reads_labels_in_the_callers_order():
    """The first unknown label in the caller's order is named (a set would
    name 1 here: small ints hash to themselves); a repeated label counts
    once; no label at all is an empty subset."""
    p3 = path_graph(3)
    with pytest.raises(UnknownLabel, match="^unknown vertex label 2$"):
        induced_subgraph(p3, [2, 1])
    assert induced_subgraph(p3, ["v2", "v0", "v2", "v1"]) == p3
    assert induced_subgraph(p3, ("v2", "v2")).vertex_labels == ("v2",)
    with pytest.raises(EmptySubset):
        induced_subgraph(p3, ())


def test_classify_shape():
    s = classify_shape(path_graph(5))
    assert s.is_path and s.size == 4
    s = classify_shape(cycle_graph(4))
    assert s.is_cycle and s.size == 4
    star = Graph.from_edges(["c", "l1", "l2", "l3"], [(0, 1), (0, 2), (0, 3)])
    assert classify_shape(star).kind == "other"
    assert classify_shape(Graph.from_edges(["a"], [])).kind == "single_vertex"
    assert classify_shape(path_graph(2)).is_path
    # disconnected 2-regular graph is not a cycle
    two_triangles = Graph.from_edges(
        [f"t{i}" for i in range(6)],
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
    )
    assert classify_shape(two_triangles).kind == "other"


def test_classify_shape_runs_bfs_only_for_path_or_cycle_degrees(monkeypatch):
    from metricgraph import graph as graph_module

    calls = []
    bfs = graph_module._bfs_from
    monkeypatch.setattr(graph_module, "_bfs_from", lambda g, src: calls.append(src) or bfs(g, src))
    star = Graph.from_edges(["c", "l1", "l2", "l3"], [(0, 1), (0, 2), (0, 3)])
    assert classify_shape(star).kind == "other" and calls == []
    assert classify_shape(cycle_graph(5)).is_cycle and calls == [0]


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_graph_json_round_trip():
    g = randgen.random_connected_graph(random.Random(3), 7)
    assert parse_graph(dump_graph(g)) == g
    assert parse_graph(dump_graph(g, "text"), "text").edges() == g.edges()


@st.composite
def graphs(draw, format: str) -> Graph:
    """Any simple graph on up to 8 vertices; text files name vertices v0..,
    JSON keeps any label."""
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    if format == "text":
        labels = [f"v{i}" for i in range(n)]
    else:
        labels = draw(st.lists(st.text(min_size=1, max_size=4), min_size=n, max_size=n,
                               unique=True))
    return Graph.from_edges(labels, [p for p, take in zip(pairs, picks) if take])


@settings(max_examples=80)
@given(st.data(), st.sampled_from(["json", "text"]))
def test_parse_inverts_dump(data, format):
    g = data.draw(graphs(format))
    back = parse_graph(dump_graph(g, format), format)
    assert back.vertex_labels == g.vertex_labels
    assert back.edges() == g.edges()


def test_parse_graph_errors():
    with pytest.raises(ParseError):
        parse_graph("{bad json")
    with pytest.raises(ParseError):
        parse_graph('{"vertices": ["a"]}')
    with pytest.raises(ParseError):
        parse_graph("2 1\n0 1\n0 1", "text")
    with pytest.raises(ParseError):
        parse_graph("nope", "text")
    for edges in ("[[0]]", "[[true, false]]", "[[0, 0]]", "[[0, 1], [1, 0]]", "[[0, 1], [0, 1]]",
                  "[[-1, 1]]", "[[0, 3]]", "[[0, 1.0]]", "[5]", "[[0, 1, 2]]",
                  "[[0, 1" + "0" * 5000 + "]]"):
        with pytest.raises(ParseError):
            parse_graph(f'{{"vertices": ["a", "b", "c"], "edges": {edges}}}')
    for text in ("3 1\n1 1\n", "3 2\n0 1\n1 0\n", "3 1\n0 3\n", "3 1\n-1 0\n"):
        with pytest.raises(ParseError):
            parse_graph(text, "text")
    deep = "[" * 200_000 + "]" * 200_000
    for text in (deep, '{"vertices": ' + deep + ', "edges": []}'):
        with pytest.raises(ParseError, match="recursion"):
            parse_graph(text)


def test_text_header_vertex_count_is_capped(monkeypatch):
    from metricgraph import graph as graph_module

    monkeypatch.setattr(graph_module, "MAX_HOST_VERTICES", 6)
    assert parse_graph("6 0\n", "text").n == 6
    with pytest.raises(TooLarge):
        parse_graph("7 0\n", "text")


def test_large_star_parses_quickly():
    """The symmetry test is a binary search in the neighbour's sorted row,
    so a 20 000-leaf star costs O(m log deg), not O(sum of deg^2)."""
    leaves = 20_000
    text = f"{leaves + 1} {leaves}\n" + "".join(f"0 {i}\n" for i in range(1, leaves + 1))
    start = time.perf_counter()
    g = parse_graph(text, "text")
    assert time.perf_counter() - start < 1.0
    assert g.degree(0) == leaves and g.edge_count() == leaves
