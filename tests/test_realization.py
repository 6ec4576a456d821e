"""Exact realization, subdivision embedding, and ceiling embedding."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricgraph import (
    ConditionFailed,
    Disconnected,
    Graph,
    MetricSpace,
    InternalVerificationFailure,
    MetricViolation,
    NotIntegerMetric,
    ParseError,
    TooLarge,
    UnknownLabel,
    ceil_embed,
    compute_x2_set,
    cycle_graph,
    embed,
    geodesic_metric,
    is_connected,
    kay_chartrand_check,
    realize,
    shortest_path,
    verify_map,
)
from metricgraph import realization
from metricgraph.realization import aux_labels

import oracles
import randgen

EGYPTIAN = MetricSpace.from_rows(["x1", "x2", "x3"], [[0, 3, 4], [3, 0, 5], [4, 5, 0]])


# ---------------------------------------------------------------------------
# realize
# ---------------------------------------------------------------------------

def test_realize_line_metric_gives_path():
    m = MetricSpace.from_rows(
        ["a", "b", "c", "d"],
        [[abs(i - j) for j in range(4)] for i in range(4)],
    )
    r = realize(m)
    assert r.aux_count == 0
    assert r.graph.vertex_labels == ("a", "b", "c", "d")
    assert r.graph.edges() == [(0, 1), (1, 2), (2, 3)]
    assert verify_map(m, r.graph) is None


def test_realize_round_trips_c12():
    c12 = cycle_graph(12)
    assert realize(geodesic_metric(c12)).graph == c12


def test_realize_condition_failure():
    with pytest.raises(ConditionFailed) as exc:
        realize(MetricSpace.from_rows(["a", "b"], [[0, 2], [2, 0]]))
    assert exc.value.witness == ("a", "b")


def test_realize_requires_integer():
    with pytest.raises(NotIntegerMetric):
        realize(MetricSpace.from_rows(["a", "b"], [[0, "1/2"], ["1/2", 0]]))


def test_realize_round_trip_random_graphs():
    rng = random.Random(29)
    for _ in range(30):
        g = randgen.random_connected_graph(rng, rng.randint(1, 10))
        again = realize(geodesic_metric(g))
        assert again.graph == g
        assert again.aux_count == 0


def test_realize_round_trip_all_small_graphs():
    for n in range(1, 7):
        for g in oracles.class_graphs(n):
            assert realize(geodesic_metric(g)).graph == g


def _drawn_table(rng: random.Random) -> tuple[tuple[str, ...], tuple[tuple[int, ...], ...]]:
    """A graph metric, a subset metric or a rejection-sampled metric, and
    half the time a copy with one entry moved by +-1: on both sides of the
    diagonal, or on one side only."""
    kind = rng.randrange(3)
    m = (geodesic_metric(randgen.random_connected_graph(rng, rng.randint(1, 7))) if kind == 0
         else randgen.random_subset_metric(rng, 6) if kind == 1
         else randgen.random_int_metric_rejection(rng, rng.randint(2, 5)))
    rows = [list(row) for row in m.dist]
    if m.n >= 2 and rng.random() < 0.5:
        i, j = rng.sample(range(m.n), 2)
        rows[i][j] += rng.choice((-1, 1))
        if rng.random() < 0.5:
            rows[j][i] = rows[i][j]
    return m.labels, tuple(map(tuple, rows))


def test_realize_iff_the_table_is_its_own_distance_one_bfs():
    """Kay and Chartrand: a table that validates is realized exactly when it
    equals the BFS distances of its own distance-1 graph.  Both answers and
    rejected tables all occur among the draws."""
    rng = random.Random(37)
    seen = Counter()
    for _ in range(300):
        labels, table = _drawn_table(rng)
        try:
            m = MetricSpace(labels, table)
        except MetricViolation:
            seen["rejected"] += 1
            continue
        try:
            realize(m)
            realized = True
        except ConditionFailed:
            realized = False
        assert realized == oracles.equals_distance_one_bfs(table), table
        seen[realized] += 1
    assert min(seen[True], seen[False], seen["rejected"]) >= 20, seen


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------

def test_embed_egyptian_is_c12():
    r = embed(EGYPTIAN)
    assert r.graph.n == 12
    assert r.aux_count == 9
    assert is_connected(r.graph)  # connected and 2-regular on 12 vertices: C12
    assert [r.graph.degree(i) for i in range(12)] == [2] * 12
    assert verify_map(EGYPTIAN, r.graph) is None


def test_embed_two_points_d5():
    r = embed(MetricSpace.from_rows(["a", "b"], [[0, 5], [5, 0]]))
    assert r.aux_count == 4
    assert r.graph.n == 6
    from metricgraph import classify_shape

    shape = classify_shape(r.graph)
    assert shape.is_path and shape.size == 5


def test_embed_of_geodesic_metric_equals_realize():
    rng = random.Random(31)
    for _ in range(10):
        g = randgen.random_connected_graph(rng, rng.randint(2, 8))
        m = geodesic_metric(g)
        r = embed(m)
        assert r.aux_count == 0
        assert r.graph == realize(m).graph == g


def test_embed_single_point():
    r = embed(MetricSpace.from_rows(["only"], [[0]]))
    assert r.graph.n == 1 and r.aux_count == 0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_embed_soundness_and_size_formula(seed):
    rng = random.Random(seed)
    m = (randgen.random_subset_metric(rng, 7) if rng.random() < 0.7
         else randgen.random_int_metric_rejection(rng, rng.randint(2, 5)))
    r = embed(m)
    assert verify_map(m, r.graph) is None
    expected_aux = sum(int(m.d(x, y)) - 1 for (x, y) in compute_x2_set(m))
    assert r.aux_count == expected_aux
    assert r.graph.n == m.n + expected_aux


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_embed_aux_labels_fresh_and_disjoint(seed):
    rng = random.Random(seed)
    m = randgen.random_subset_metric(rng, 7)
    r = embed(m)
    x2 = list(compute_x2_set(m))
    seen: set[str] = set(m.labels)
    for (x, y) in x2:
        interior = aux_labels(x, y, int(m.d(x, y)))
        assert not seen.intersection(interior)
        seen.update(interior)
    assert set(r.graph.vertex_labels) == seen


@pytest.mark.parametrize("labels", [
    ["a::b", "c", "a", "b::c"],
    ["a\\", "\\:b", "a\\::b", ":b\\", "a", "b", "a:", "\\"],
])
def test_aux_labels_of_labels_with_colons_and_backslashes(labels):
    """Joined unescaped, the pairs (a::b, c) and (a, b::c) both named their
    one interior vertex `__aux::a::b::c::1`, and embed failed on a valid metric."""
    n = len(labels)
    m = MetricSpace.from_rows(labels, [[0 if i == j else 2 for j in range(n)] for i in range(n)])
    for r in (embed(m), ceil_embed(m)):
        assert r.aux_count == n * (n - 1) // 2
        assert verify_map(m, r.graph) is None
    assert aux_labels("a::b", "c", 2) != aux_labels("a", "b::c", 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_kay_chartrand_pass_iff_no_aux(seed):
    rng = random.Random(seed)
    m = (randgen.random_subset_metric(rng, 6) if rng.random() < 0.5
         else randgen.random_int_metric_rejection(rng, rng.randint(2, 5)))
    assert (kay_chartrand_check(m) is None) == (embed(m).aux_count == 0)


# ---------------------------------------------------------------------------
# ceil_embed
# ---------------------------------------------------------------------------

def test_ceil_embed_examples():
    m = MetricSpace.from_rows(["a", "b"], [[0, "2.3"], ["2.3", 0]])
    r = ceil_embed(m)
    assert r.graph.n == 4  # path of length 3
    d_g = len(shortest_path(r.graph, "a", "b")) - 1
    assert Fraction(23, 10) <= d_g < Fraction(33, 10)

    integer = MetricSpace.from_rows(["a", "b", "c"], [[0, 2, 2], [2, 0, 2], [2, 2, 0]])
    assert ceil_embed(integer).graph == embed(integer).graph

    two = MetricSpace(("a", "b"), ((0, Fraction(2)), (Fraction(2), 0)))  # integral, held as a Fraction
    r = embed(two)
    assert (r.graph.n, r.aux_count, type(r.aux_count)) == (3, 1, int)
    assert ceil_embed(two).graph == r.graph

    halves = MetricSpace.from_rows(
        ["a", "b", "c"], [[0, "3/2", "3/2"], ["3/2", 0, 2], ["3/2", 2, 0]]
    )
    r = ceil_embed(halves)
    assert r.graph.n == 6 and r.aux_count == 3


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_ceil_embed_distortion_bound(seed):
    rng = random.Random(seed)
    m = randgen.random_decimal_metric(rng, 5)
    r = ceil_embed(m)
    from metricgraph.graph import geodesic_distances

    d_g = geodesic_distances(r.graph)
    for i, x in enumerate(m.labels):
        for j in range(i + 1, m.n):
            gi = r.graph.index(x)
            gj = r.graph.index(m.labels[j])
            assert m.dist[i][j] <= d_g[gi][gj] < m.dist[i][j] + 1


# ---------------------------------------------------------------------------
# verify_map
# ---------------------------------------------------------------------------

def test_verify_map_pass_and_perturbed_failure():
    r = embed(EGYPTIAN)
    assert verify_map(EGYPTIAN, r.graph) is None

    # C11 analog: ring positions 0, 3, 7 give arcs 3, 4, 4 - the 5 shrinks
    labels = [f"v{i}" for i in range(11)]
    labels[0], labels[3], labels[7] = "x1", "x2", "x3"
    c11 = Graph.from_edges(labels, cycle_graph(11).edges())
    mismatch = verify_map(EGYPTIAN, c11)
    assert mismatch is not None
    assert mismatch.pair == ("x2", "x3")
    assert mismatch.expected == 5 and mismatch.actual == 4


def test_verify_map_single_point():
    m = MetricSpace.from_rows(["p"], [[0]])
    assert verify_map(m, Graph.from_edges(["p"], [])) is None


def test_verify_map_errors():
    m = MetricSpace.from_rows(["a", "b"], [[0, 1], [1, 0]])
    with pytest.raises(UnknownLabel):
        verify_map(m, Graph.from_edges(["a", "zz"], [(0, 1)]))
    with pytest.raises(Disconnected):
        verify_map(m, Graph.from_edges(["a", "b"], []))
    # Every point in one component, one isolated extra vertex.
    with pytest.raises(Disconnected):
        verify_map(m, Graph.from_edges(["a", "b", "c"], [(0, 1)]))
    with pytest.raises(Disconnected):
        verify_map(m, Graph.from_edges(["c", "a", "b"], [(1, 2)]))


# ---------------------------------------------------------------------------
# robustness of the builder
# ---------------------------------------------------------------------------

def test_embed_rejects_a_host_graph_above_the_cap(monkeypatch):
    with pytest.raises(TooLarge):  # refused before 10**100000 is built
        MetricSpace.from_rows(["a", "b"], [[0, "1e100000"], ["1e100000", 0]])
    huge = MetricSpace.from_rows(["a", "b"], [[0, "1e1999"], ["1e1999", 0]])
    with pytest.raises(TooLarge):
        embed(huge)
    with pytest.raises(TooLarge):
        ceil_embed(MetricSpace.from_rows(["a", "b"], [[0, "3333333.5"], ["3333333.5", 0]]))

    monkeypatch.setattr(realization, "MAX_HOST_VERTICES", 6)
    assert embed(MetricSpace.from_rows(["a", "b"], [[0, 5], [5, 0]])).graph.n == 6
    with pytest.raises(TooLarge):
        embed(MetricSpace.from_rows(["a", "b"], [[0, 6], [6, 0]]))


def test_embed_rejects_reserved_point_labels():
    m = MetricSpace.from_rows(["a", "b", "__aux::a::b::1"], [[0, 2, 3], [2, 0, 3], [3, 3, 0]])
    with pytest.raises(ParseError, match="reserved"):
        embed(m)
    # No auxiliary vertex is needed, so nothing can collide.
    host = geodesic_metric(embed(EGYPTIAN).graph)
    assert embed(host).aux_count == 0
    assert realize(host).graph == embed(host).graph


def test_embed_raises_when_its_own_check_fails(monkeypatch):
    one_short = aux_labels
    monkeypatch.setattr(realization, "aux_labels",
                        lambda x, y, length: one_short(x, y, length)[:-1])
    with pytest.raises(InternalVerificationFailure):
        embed(EGYPTIAN)
