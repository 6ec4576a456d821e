"""Betweenness class, line embedding, pseudo-linear quadruples, conjectures."""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricgraph import (
    Disconnected,
    EmptyGraph,
    Graph,
    MetricSpace,
    ParseError,
    TooLarge,
    TooSmall,
    WrongArity,
    check_conjecture_42,
    check_conjecture_44,
    cycle_graph,
    enumerate_connected_graphs,
    geodesic_metric,
    line_embed,
    mb_check,
    path_graph,
    plq_classify,
    quad_inequality,
    replay_violation,
    search,
)
from metricgraph import quadruples
from metricgraph.quadruples import _c44_status, assemble_report, ConjectureViolation, four_subset_status

import oracles
import randgen


def relabel_shuffled(m: MetricSpace, rng: random.Random) -> MetricSpace:
    order = list(m.labels)
    rng.shuffle(order)
    return m.restrict(order)


# ---------------------------------------------------------------------------
# mb_check
# ---------------------------------------------------------------------------

def test_mb_examples():
    assert mb_check(geodesic_metric(path_graph(6))) is None
    assert mb_check(geodesic_metric(cycle_graph(4))) is None
    assert mb_check(geodesic_metric(cycle_graph(5))) == ("v0", "v1", "v3")


def test_mb_witness_is_a_violation():
    m = geodesic_metric(cycle_graph(5))
    x, y, z = mb_check(m)
    assert m.d(x, z) >= max(m.d(x, y), m.d(y, z))
    assert m.d(x, z) != m.d(x, y) + m.d(y, z)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_mb_relabeling_invariance(seed):
    rng = random.Random(seed)
    m = randgen.random_subset_metric(rng, 6)
    shuffled = relabel_shuffled(m, rng)
    assert (mb_check(m) is None) == (mb_check(shuffled) is None)


# ---------------------------------------------------------------------------
# line_embed
# ---------------------------------------------------------------------------

def test_line_embed_examples():
    m = MetricSpace.from_rows(["a", "b", "c"], [[0, 1, 3], [1, 0, 2], [3, 2, 0]])
    coords = line_embed(m)
    assert coords == {"a": 0, "b": 1, "c": 3}
    assert line_embed(geodesic_metric(cycle_graph(4))) is None
    single = MetricSpace.from_rows(["a"], [[0]])
    assert line_embed(single) == {"a": 0}


def test_line_embed_gauge():
    m = randgen.random_line_subset_metric(random.Random(1))
    coords = line_embed(m)
    assert coords[m.labels[0]] == 0
    assert coords[m.labels[1]] > 0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_line_embed_agrees_with_sign_oracle(seed):
    rng = random.Random(seed)
    m = (randgen.random_line_subset_metric(rng, 3, 7) if rng.random() < 0.5
         else randgen.random_subset_metric(rng, 6))
    got = line_embed(m)
    oracle = oracles.line_embed_by_signs(m)
    assert (got is None) == (oracle is None)
    if got is not None:
        for i in range(m.n):
            for j in range(m.n):
                assert abs(got[m.labels[i]] - got[m.labels[j]]) == m.dist[i][j]


def test_line_embed_mb_path_subsets():
    rng = random.Random(41)
    for _ in range(20):
        m = randgen.random_line_subset_metric(rng)
        assert mb_check(m) is None
        assert line_embed(m) is not None


# ---------------------------------------------------------------------------
# plq_classify
# ---------------------------------------------------------------------------

def test_plq_c4():
    plq = plq_classify(geodesic_metric(cycle_graph(4)))
    assert plq is not None
    assert plq.s == plq.t == 1
    assert plq.equilateral
    assert plq.ordering == ("v0", "v1", "v2", "v3")


def test_plq_c8_even_subset():
    m = geodesic_metric(cycle_graph(8)).restrict(["v0", "v2", "v4", "v6"])
    plq = plq_classify(m)
    assert plq is not None and plq.equilateral and plq.s == plq.t == 2


def test_plq_line_is_none():
    m = MetricSpace.from_rows(
        ["a", "b", "c", "d"], [[abs(i - j) for j in range(4)] for i in range(4)]
    )
    assert plq_classify(m) is None


def test_plq_arity():
    with pytest.raises(WrongArity):
        plq_classify(geodesic_metric(path_graph(3)))


def test_plq_s_le_t_normalization():
    # sides 1 and 2 around the quadruple: diagonals 3
    m = MetricSpace.from_rows(
        ["a", "b", "c", "d"],
        [[0, 2, 3, 1], [2, 0, 1, 3], [3, 1, 0, 2], [1, 3, 2, 0]],
    )
    plq = plq_classify(m)
    assert plq is not None
    assert (plq.s, plq.t) == (1, 2)
    # the returned ordering itself satisfies the pattern with s <= t
    d = m.d
    x1, x2, x3, x4 = plq.ordering
    assert d(x1, x2) == d(x3, x4) == plq.s
    assert d(x2, x3) == d(x4, x1) == plq.t
    assert d(x1, x3) == d(x2, x4) == plq.s + plq.t


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_plq_matches_exhaustive_ordering_oracle(seed):
    rng = random.Random(seed)
    m = randgen.random_subset_metric(rng, 4, min_points=4)
    got = plq_classify(m)
    orderings = oracles.plq_pattern_orderings(m)
    assert (got is not None) == bool(orderings)
    if got is not None:
        assert got.ordering in orderings


# ---------------------------------------------------------------------------
# quad_inequality
# ---------------------------------------------------------------------------

def test_quad_examples_frozen():
    c4 = geodesic_metric(cycle_graph(4))
    q = quad_inequality(c4, ["v0", "v1", "v2", "v3"])
    assert (q.lhs, q.bound, q.slack) == (2, 2, 0)

    line = MetricSpace.from_rows(
        ["a", "b", "c", "d"], [[abs(i - j) for j in range(4)] for i in range(4)]
    )
    q = quad_inequality(line, ["a", "b", "c", "d"])
    assert q.lhs == 0
    assert q.bound == Fraction(9, 2)
    assert q.slack == Fraction(9, 2)

    evens = geodesic_metric(cycle_graph(8)).restrict(["v0", "v2", "v4", "v6"])
    q = quad_inequality(evens, ["v0", "v2", "v4", "v6"])
    assert q.slack == 0


def test_quad_arity():
    m = geodesic_metric(cycle_graph(4))
    with pytest.raises(WrongArity):
        quad_inequality(m, ["v0", "v1", "v2"])
    with pytest.raises(WrongArity):
        quad_inequality(m, ["v0", "v1", "v2", "v2"])


def test_quad_rotation_and_reflection_invariance():
    m = geodesic_metric(cycle_graph(5)).restrict(["v0", "v1", "v2", "v4"])
    base = quad_inequality(m, ["v0", "v1", "v2", "v4"]).lhs
    assert quad_inequality(m, ["v1", "v2", "v4", "v0"]).lhs == base
    assert quad_inequality(m, ["v4", "v2", "v1", "v0"]).lhs == base


def test_quad_slack_sign_and_equality_cases():
    """Over all 4-subsets of all connected graphs on <= 5 vertices: slack is
    never negative, and hits zero exactly for equilateral quadruples."""
    for n in range(4, 6):
        for g in enumerate_connected_graphs(n):
            m = geodesic_metric(g)
            for subset in itertools.combinations(m.labels, 4):
                sub = m.restrict(subset)
                slacks = [
                    quad_inequality(sub, ordering).slack
                    for ordering in itertools.permutations(subset)
                ]
                assert all(s >= 0 for s in slacks)
                plq = plq_classify(sub)
                equilateral = plq is not None and plq.equilateral
                assert (min(slacks) == 0) == equilateral


# ---------------------------------------------------------------------------
# Conjecture checkers
# ---------------------------------------------------------------------------

def test_c42_examples():
    assert check_conjecture_42(path_graph(7)) is None
    assert check_conjecture_42(cycle_graph(4)) is None
    assert check_conjecture_42(cycle_graph(5)) is None
    star = Graph.from_edges(["c", "l1", "l2", "l3"], [(0, 1), (0, 2), (0, 3)])
    assert check_conjecture_42(star) is None  # not in the class, not path/C4


def test_c42_errors():
    with pytest.raises(EmptyGraph):
        check_conjecture_42(Graph.from_edges(["a"], []))
    with pytest.raises(Disconnected):
        check_conjecture_42(Graph.from_edges(["a", "b"], []))


def test_c44_examples():
    assert check_conjecture_44(cycle_graph(4)) == []
    assert check_conjecture_44(path_graph(5)) == []
    assert check_conjecture_44(cycle_graph(6)) == []
    violations = check_conjecture_44(cycle_graph(8))
    witnesses = {v.witness for v in violations}
    assert ("v0", "v2", "v4", "v6") in witnesses
    assert all(v.direction == "ii_implies_i" for v in violations)


def test_c44_errors():
    with pytest.raises(TooSmall):
        check_conjecture_44(path_graph(3))
    with pytest.raises(Disconnected):
        check_conjecture_44(Graph.from_edges(["a", "b", "c", "d"], [(0, 1), (2, 3)]))


def test_induced_four_cycles_are_unit_equilateral_quadruples():
    """Chordless 4-cycles force opposite vertices to distance exactly 2, so
    their geodesic restriction is always the s = t = 1 quadruple."""
    from metricgraph import classify_shape, induced_subgraph

    found = 0
    for n in range(4, 7):
        for g in enumerate_connected_graphs(n):
            m = geodesic_metric(g)
            for subset in itertools.combinations(m.labels, 4):
                shape = classify_shape(induced_subgraph(g, subset))
                if shape.is_cycle and shape.size == 4:
                    plq = plq_classify(m.restrict(subset))
                    assert plq is not None and plq.equilateral
                    assert plq.s == plq.t == 1
                    found += 1
    assert found > 0


def test_c44_status_matches_shape_and_plq_route():
    """The distance-matrix status of every 4-subset equals the route through
    an induced subgraph's shape and the restricted metric's classification."""
    from metricgraph import classify_shape, induced_subgraph

    graphs = [g for n in range(4, 7) for g in enumerate_connected_graphs(n)]
    for g in graphs + [cycle_graph(8)]:
        m = geodesic_metric(g)
        for quad in itertools.combinations(range(g.n), 4):
            subset = tuple(g.vertex_labels[i] for i in quad)
            shape = classify_shape(induced_subgraph(g, subset))
            plq = plq_classify(m.restrict(subset))
            expected = (shape.is_cycle and shape.size == 4,
                        plq is not None and plq.equilateral)
            assert _c44_status(m.dist, quad) == expected
            assert four_subset_status(m, subset[::-1]) == expected


def test_violations_replay():
    violations = check_conjecture_44(cycle_graph(8))
    assert violations
    for v in violations:
        assert replay_violation(v)
    fake = ConjectureViolation("C44", cycle_graph(8), ("v0", "v1", "v2", "v3"), "ii_implies_i")
    assert not replay_violation(fake)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def test_search_counts_and_consistency():
    report = search("C42", 5, 10)
    assert report.graphs_checked == 29  # 2 + 6 + 21 for n = 3, 4, 5
    assert report.violations == ()

    report = search("C44", 4, 10)
    assert report.graphs_checked == 6

    report = search("C42", 3, 10)
    assert report.graphs_checked == 2
    assert report.violations == ()


def test_search_bounds():
    with pytest.raises(TooLarge):
        search("C42", 2, 10)
    with pytest.raises(TooLarge):
        search("C42", 9, 10)
    with pytest.raises(ParseError):
        search("C99", 5, 10)
    with pytest.raises(TooSmall):
        search("C42", 5, 10, jobs=0)


def test_search_report_json_deterministic():
    a = search("C44", 5, 10).to_json()
    b = search("C44", 5, 10).to_json()
    assert a == b
    doc = json.loads(a)
    assert doc["conjecture"] == "C44"
    assert doc["max_n"] == 5
    assert doc["violations"] == []
    for conjecture_id in ("C42", "C44"):
        assert search(conjecture_id, 6, jobs=2).to_json() == search(conjecture_id, 6).to_json()


def test_search_jobs_one_runs_in_process(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("jobs=1 must not start a process pool")

    monkeypatch.setattr(quadruples.multiprocessing, "Pool", no_pool)
    assert search("C44", 5, jobs=1).graphs_checked == 27


def test_assemble_report_caps_violations():
    grab = ConjectureViolation("C44", cycle_graph(8), ("v0", "v2", "v4", "v6"), "ii_implies_i")
    per_graph = [[grab], [grab, grab], []]
    report = assemble_report("C44", 8, per_graph, max_violations=2)
    assert report.graphs_checked == 3
    assert len(report.violations) == 2
