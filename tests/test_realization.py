"""Exact realization, subdivision embedding, and ceiling embedding."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricgraph import (
    ConditionFailed,
    Disconnected,
    Graph,
    MetricSpace,
    NotIntegerMetric,
    UnknownLabel,
    canonical_form,
    ceil_embed,
    compute_x2_set,
    cycle_graph,
    embed,
    geodesic_metric,
    kay_chartrand_check,
    realize,
    shortest_path,
    verify_map,
)
from metricgraph.realization import EmbeddingMap, aux_labels

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
    assert r.map.verified
    assert r.map.assignment == {lab: lab for lab in "abcd"}


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
    from metricgraph import enumerate_connected_graphs

    for n in range(1, 7):
        for g in enumerate_connected_graphs(n):
            assert realize(geodesic_metric(g)).graph == g


# ---------------------------------------------------------------------------
# embed
# ---------------------------------------------------------------------------

def test_embed_egyptian_is_c12():
    r = embed(EGYPTIAN)
    assert r.graph.n == 12
    assert r.aux_count == 9
    assert canonical_form(r.graph, max_vertices=12) == canonical_form(
        cycle_graph(12), max_vertices=12
    )
    assert verify_map(EGYPTIAN, r.graph, r.map) is None


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
    assert verify_map(m, r.graph, r.map) is None
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
            gi = r.graph.index(r.map.target(x))
            gj = r.graph.index(r.map.target(m.labels[j]))
            assert m.dist[i][j] <= d_g[gi][gj] < m.dist[i][j] + 1


# ---------------------------------------------------------------------------
# verify_map
# ---------------------------------------------------------------------------

def test_verify_map_pass_and_perturbed_failure():
    r = embed(EGYPTIAN)
    assert verify_map(EGYPTIAN, r.graph, r.map) is None

    # C11 analog: ring positions 0, 3, 7 give arcs 3, 4, 4 - the 5 shrinks
    c11 = cycle_graph(11)
    emb = EmbeddingMap({"x1": "v0", "x2": "v3", "x3": "v7"})
    mismatch = verify_map(EGYPTIAN, c11, emb)
    assert mismatch is not None
    assert mismatch.pair == ("x2", "x3")
    assert mismatch.expected == 5 and mismatch.actual == 4


def test_verify_map_single_point():
    m = MetricSpace.from_rows(["p"], [[0]])
    g = Graph.from_edges(["q"], [])
    assert verify_map(m, g, EmbeddingMap({"p": "q"})) is None


def test_verify_map_errors():
    m = MetricSpace.from_rows(["a", "b"], [[0, 1], [1, 0]])
    g = Graph.from_edges(["a", "b"], [(0, 1)])
    with pytest.raises(UnknownLabel):
        verify_map(m, g, EmbeddingMap({"a": "a"}))
    with pytest.raises(UnknownLabel):
        verify_map(m, g, EmbeddingMap({"a": "a", "b": "zz"}))
    disconnected = Graph.from_edges(["a", "b"], [])
    with pytest.raises(Disconnected):
        verify_map(m, disconnected, EmbeddingMap({"a": "a", "b": "b"}))


def test_embedding_map_injective():
    with pytest.raises(ValueError):
        EmbeddingMap({"a": "x", "b": "x"})
