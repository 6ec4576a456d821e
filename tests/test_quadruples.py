"""Betweenness class, line embedding, pseudo-linear quadruples, conjectures."""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

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
    classify_shape,
    cycle_graph,
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
from metricgraph.enumeration import graph_from_mask, split_trees
from metricgraph.graph import connected_distances
from metricgraph.metric import find_metric_violation
from metricgraph.quadruples import assemble_report, check_graph, ConjectureViolation, four_subset_status

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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_mb_check_matches_oracle_off_graph_metrics(seed):
    """`mb_check` equals the definition's first violating triple on point
    subsets of graph metrics, on line metrics, and on every table one
    entry of a line metric moved by +-1 that is still a metric."""
    rng = random.Random(seed)
    line = randgen.random_line_subset_metric(rng, 3, 7)
    spaces = [randgen.random_subset_metric(rng, 7), line]
    for i, j in itertools.combinations(range(line.n), 2):
        for step in (1, -1):
            rows = [list(row) for row in line.dist]
            rows[i][j] = rows[j][i] = rows[i][j] + step
            if find_metric_violation(rows) is None:
                spaces.append(MetricSpace.from_rows(line.labels, rows))
    for m in spaces:
        assert mb_check(m) == oracles.first_mb_violation(m), m.dist


def test_mb_check_scans_triples_only_off_the_line(monkeypatch):
    """From five points on, `line_embed` decides a line metric, and the
    triple scan runs only for a non-member's witness, as on C5."""
    calls = []
    scan = quadruples._mb_violation
    monkeypatch.setattr(quadruples, "_mb_violation", lambda d: calls.append(len(d)) or scan(d))
    for n in range(5, 10):
        assert mb_check(geodesic_metric(path_graph(n))) is None
    assert mb_check(randgen.random_line_subset_metric(random.Random(3))) is None
    assert calls == []
    assert mb_check(geodesic_metric(cycle_graph(5))) == ("v0", "v1", "v3")
    assert calls == [5]


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
    """Also: a fitting pairing gives the 8 orderings of one 4-cycle, so 0
    or 8 orderings means at most one pairing fits, the fact behind the
    closed form in `oracles.c44_status`; `four_subset_status`'s
    equilateral test agrees."""
    rng = random.Random(seed)
    m = randgen.random_subset_metric(rng, 4, min_points=4)
    got = plq_classify(m)
    orderings = oracles.plq_pattern_orderings(m)
    assert (got is not None) == bool(orderings)
    if got is not None:
        assert got.ordering in orderings
    assert len(orderings) in (0, 8)
    d = m.d
    equilateral = any(d(w, x) == d(x, y) for w, x, y, _ in orderings)
    assert four_subset_status(m, m.labels)[1] == equilateral


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
        for g in oracles.class_graphs(n):
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


def test_c42_matches_the_metric_route(monkeypatch):
    """The BFS-row checker gives the same result as `mb_check` on the
    validated geodesic metric plus `classify_shape`, and `mb_check`'s
    witness is the first violating triple of the definition: paths and C4
    are in the class, every other class is not, and none reports.  With
    `_mb_violation` patched to find nothing, the `mb_implies_shape` branch
    runs, and exactly the cycles with n >= 5 report: the kernel decides
    every other class from its degrees."""
    graphs = [g for n in range(2, 8) for g in oracles.class_graphs(n)]
    graphs += [cycle_graph(8), path_graph(8)]
    for g in graphs:
        m = geodesic_metric(g)
        witness = mb_check(m)
        assert witness == oracles.first_mb_violation(m)
        shape = classify_shape(g)
        assert (witness is None) == (shape.is_path or (shape.is_cycle and shape.size == 4)), g
        assert check_conjecture_42(g) is None, g
    monkeypatch.setattr(quadruples, "_mb_violation", lambda d: None)
    for g in graphs:
        shape = classify_shape(g)
        expected = ((), "mb_implies_shape") if shape.is_cycle and shape.size >= 5 else None
        got = check_conjecture_42(g)
        assert (got if got is None else (got.witness, got.direction)) == expected, g


def c42_certificate(g: Graph) -> tuple[int, int, int] | None:
    """A triple outside the betweenness class, read off the adjacency as in
    the lemma of `check_conjecture_42`: a triangle; else three neighbours
    of a vertex of degree >= 3; else, on C_n with n >= 5 numbered around
    the cycle from vertex 0, (1, 0, m + 1) for n = 2m + 1 and
    (0, m + 1, m - 1) for n = 2m.  None for paths and C4."""
    n, adj = g.n, g.adjacency
    for a, b, c in itertools.combinations(range(n), 3):
        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c):
            return (a, b, c)
    for row in adj:
        if len(row) >= 3:
            return tuple(row[:3])
    if g.edge_count() == n - 1 or n == 4:
        return None
    order = [0, adj[0][0]]
    while len(order) < n:
        order.append(next(u for u in adj[order[-1]] if u != order[-2]))
    m, odd = divmod(n, 2)
    return tuple(order[k] for k in ((1, 0, m + 1) if odd else (0, m + 1, m - 1)))


def test_c42_certificates_from_adjacency():
    """Every class n = 3..8, and P_n, C_n for n = 3..16: the certificate
    read off the adjacency meets `_mb_violation`'s own condition on the
    BFS rows, and only paths and C4 have none, on which `_mb_violation`
    finds nothing."""
    graphs = [g for n in range(3, 9) for g in oracles.class_graphs(n)]
    graphs += [f(n) for f in (cycle_graph, path_graph) for n in range(3, 17)]
    for g in graphs:
        d = connected_distances(g)
        triple = c42_certificate(g)
        shape = classify_shape(g)
        assert (triple is None) == (shape.is_path or (shape.is_cycle and shape.size == 4)), g
        if triple is None:
            assert quadruples._mb_violation(d) is None, g
        else:
            x, y, z = triple
            assert len(set(triple)) == 3, g
            assert d[x][z] >= max(d[x][y], d[y][z]) and d[x][z] != d[x][y] + d[y][z], g


def _raised(check, *args) -> Exception:
    with pytest.raises(Exception) as info:
        check(*args)
    return info.value


def test_c42_errors():
    with pytest.raises(EmptyGraph):
        check_conjecture_42(Graph.from_edges(["a"], []))
    with pytest.raises(Disconnected):
        check_conjecture_42(Graph.from_edges(["a", "b"], []))
    with pytest.raises(ParseError, match="unknown conjecture id 'C99'"):  # the id before connectivity
        check_graph("C99", Graph.from_edges(["a", "b"], []))
    single = Graph.from_edges(["a"], [])
    via, direct = _raised(check_graph, "C42", single), _raised(check_conjecture_42, single)
    assert type(via) is type(direct) is EmptyGraph and str(via) == str(direct)


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
    with pytest.raises(Disconnected):  # connectivity before size
        check_conjecture_44(Graph.from_edges(["a", "b", "c"], [(0, 1)]))
    via, direct = _raised(check_graph, "C44", path_graph(3)), _raised(check_conjecture_44, path_graph(3))
    assert type(via) is type(direct) is TooSmall and str(via) == str(direct)


def test_induced_four_cycles_are_unit_equilateral_quadruples():
    """Chordless 4-cycles force opposite vertices to distance exactly 2, so
    their geodesic restriction is always the s = t = 1 quadruple."""
    from metricgraph import classify_shape, induced_subgraph

    found = 0
    for n in range(4, 7):
        for g in oracles.class_graphs(n):
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
    """The status of every 4-subset equals the route through an induced
    subgraph's shape and the restricted metric's classification, and the
    closed form of `oracles.c44_status` on the BFS rows."""
    from metricgraph import classify_shape, induced_subgraph

    graphs = [g for n in range(4, 7) for g in oracles.class_graphs(n)]
    for g in graphs + [cycle_graph(8)]:
        m = geodesic_metric(g)
        for quad in itertools.combinations(range(g.n), 4):
            subset = tuple(g.vertex_labels[i] for i in quad)
            shape = classify_shape(induced_subgraph(g, subset))
            plq = plq_classify(m.restrict(subset))
            expected = (shape.is_cycle and shape.size == 4,
                        plq is not None and plq.equilateral)
            assert four_subset_status(m, subset) == expected
            assert four_subset_status(m, subset[::-1]) == expected
            assert four_subset_status(m, subset) == oracles.c44_status(m.dist, quad)


def grid_graph(r: int, c: int) -> Graph:
    labels = [f"v{i}" for i in range(r * c)]
    edges = [(i, i + 1) for i in range(r * c) if (i + 1) % c]
    edges += [(i, i + c) for i in range(r * c - c)]
    return Graph.from_edges(labels, edges)


def test_checkers_match_the_two_sided_routes():
    """Each checker tests only the direction that can fail, on the kernel's
    rows from neighbour bitmasks; the routes that test both (C44 on every
    4-subset), on the rows of `connected_distances`, give the same output
    on every class with n <= 7, C4..C16, P4..P16, the r x c grids with
    2 <= r, c <= 5 and 1000 seeded sparse graphs, a set with at least 50
    C44 violations.  On the n = 8 classes too, C44 only where the diameter
    is at least 4, the only classes it does not skip.  Both sides' rows
    come from `graph._bfs_from`, so their equality here checks the
    bitmask-to-list step (`test_distances_match_oracle_on_enumerated_graphs`
    checks the BFS against exhaustive path search), and the kernel's
    diameter test agrees with the rows."""
    rng = random.Random(20261018)
    graphs = [g for n in range(2, 8) for g in oracles.class_graphs(n)]
    graphs += [f(n) for f in (cycle_graph, path_graph) for n in range(4, 17)]
    graphs += [grid_graph(r, c) for r in range(2, 6) for c in range(2, 6)]
    graphs += [randgen.random_sparse_graph(rng) for _ in range(1000)]
    n8 = oracles.class_graphs(8)
    c44_violations = 0
    for k, g in enumerate(graphs + n8):
        d = connected_distances(g)
        nbr = [sum(1 << j for j in row) for row in g.adjacency]
        assert quadruples._distance_rows(g.n, nbr) == [list(row) for row in d], g
        diameter = max(map(max, d))
        assert quadruples._diameter_below_4(g.n, nbr) == (diameter < 4), g
        assert check_conjecture_42(g) == oracles.check_conjecture_42_two_sided(g), g
        if g.n >= 4 and (k < len(graphs) or diameter >= 4):
            violations = check_conjecture_44(g)
            assert violations == oracles.check_conjecture_44_by_subsets(g), g
            c44_violations += len(violations)
    assert c44_violations >= 50


def test_violations_replay():
    violations = check_conjecture_44(cycle_graph(8))
    assert violations
    for v in violations:
        assert replay_violation(v)
    first = violations[0]
    not_replayed = [
        *(v._replace(direction="i_implies_ii") for v in violations),
        first._replace(witness=("v0", "v1", "v2", "v3")),
        first._replace(witness=("v0", "v2", "v4", "zz")),
        first._replace(conjecture_id="C99"),
        ConjectureViolation("C42", path_graph(4), (), "mb_implies_shape"),
    ]
    for fake in not_replayed:
        assert not replay_violation(fake), fake


EVIDENCE = Path(__file__).resolve().parent.parent / "evidence"


def test_n9_evidence_matches_its_sums_and_replays():
    """The committed `search --conjecture 4.2|4.4 --max-n 9` reports match
    evidence/SHA256SUMS, count the A001349 classes, and every recorded
    violation replays.  The sweeps themselves take minutes and are not
    re-run here."""
    sums = dict(line.split()[::-1] for line in (EVIDENCE / "SHA256SUMS").read_text().splitlines())
    assert sorted(sums) == ["c42-n9.json", "c44-n9.json"]
    classes = {3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117, 9: 261080}
    for name, digest in sums.items():
        data = (EVIDENCE / name).read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest, name
        doc = json.loads(data)
        conjecture = doc["conjecture"]
        assert (conjecture, doc["max_n"]) == (name[:3].upper(), 9)
        min_n = {"C42": 3, "C44": 4}[conjecture]
        assert doc["graphs_checked"] == sum(k for n, k in classes.items() if n >= min_n)
        for v in doc["violations"]:
            g = Graph.from_edges(v["graph"]["vertices"], v["graph"]["edges"])
            assert replay_violation(
                ConjectureViolation(conjecture, g, tuple(v["witness"]), v["direction"]))


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


def test_sweeps_build_and_validate_no_metric(monkeypatch):
    """Swept graphs' BFS rows are metrics by construction: a sweep neither
    re-validates them nor builds graphs through the edge-list route."""
    from metricgraph import metric

    calls = []
    validate = metric.find_metric_violation
    from_edges = Graph.from_edges.__func__

    def counted_validate(dist, pairs=None):
        calls.append("validate")
        return validate(dist, pairs)

    def counted_from_edges(cls, labels, edges):
        calls.append("from_edges")
        return from_edges(cls, labels, edges)

    monkeypatch.setattr(metric, "find_metric_violation", counted_validate)
    monkeypatch.setattr(Graph, "from_edges", classmethod(counted_from_edges))
    geodesic_metric(path_graph(3))  # BFS rows are built, not validated
    assert calls == ["from_edges"]
    MetricSpace.from_rows(["a"], [[0]])  # the validate patch is live
    assert calls == ["from_edges", "validate"]
    calls.clear()
    assert search("C42", 6).graphs_checked == 141
    assert search("C44", 6).graphs_checked == 139
    assert calls == []


def test_search_bounds():
    with pytest.raises(TooSmall, match="max_n >= 3"):  # nothing exceeds a cap
        search("C42", 2, 10)
    with pytest.raises(TooLarge):
        search("C42", 10, 10)
    with pytest.raises(ParseError):
        search("C99", 5, 10)
    with pytest.raises(TooSmall):
        search("C42", 5, 10, jobs=0)
    for hidden in (0, -5):
        with pytest.raises(TooSmall):
            search("C42", 4, max_violations=hidden)
    with pytest.raises(TooSmall, match="max_n >= 4"):  # C44 below its smallest checkable n
        search("C44", 3)


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
    def no_fork():
        raise AssertionError("jobs=1 must not fork a worker")

    monkeypatch.setattr(os, "fork", no_fork)
    assert search("C44", 5, jobs=1).graphs_checked == 27


def test_search_pool_is_at_most_one_worker_per_cpu(monkeypatch):
    sizes = []
    kept_per_shard = []

    def in_process(check, shards, jobs):
        sizes.append(jobs)
        results = [check(shard) for shard in shards]
        kept_per_shard.extend(len(kept) for _, kept in results)
        return results[::-1]  # the last shard done first

    monkeypatch.setattr(quadruples, "_forked", in_process)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    expected = search("C44", 6).to_json()
    for jobs in (2, 3, 4, 1_000_000):
        assert search("C44", 6, jobs=jobs).to_json() == expected
    assert sizes == [2, 3, 3, 3]
    # With two violations on every class, the merge must restore (n, mask)
    # order, and keep one graph's violations in their own order.
    monkeypatch.setitem(quadruples._CONJECTURES, "C44", (lambda n, nbr: [(0,), (1,)], 4, "ii_implies_i"))
    classes = itertools.islice((g for n in (4, 5, 6) for g in oracles.class_graphs(n)), 20)
    first = [(g, (w,)) for g in classes for w in ("v0", "v1")]
    for jobs in (1, 3):
        report = search("C44", 6, max_violations=40, jobs=jobs)
        assert [(v.graph, v.witness) for v in report.violations] == first
    kept_per_shard.clear()
    report = search("C44", 6, max_violations=3, jobs=3)
    assert [(v.graph, v.witness) for v in report.violations] == first[:3]
    assert max(kept_per_shard) == 3  # a shard sends back no more than the report can use


def test_search_pool_follows_the_cpu_affinity(monkeypatch):
    """A process pinned to one CPU of a 64-CPU host runs jobs = 3 in-process."""
    def no_fork():
        raise AssertionError("one usable CPU must not fork a worker")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5}, raising=False)
    assert search("C44", 5, jobs=3).graphs_checked == 27


def test_search_without_fork_runs_in_process(monkeypatch):
    """Where the OS has no `fork` (Windows), jobs = 2 is the jobs = 1 sweep."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delattr(os, "fork", raising=False)
    assert search("C44", 6, jobs=2).to_json() == search("C44", 6, jobs=1).to_json()


# Run in a fresh interpreter with a timeout, so that a search which waits
# forever for a lost worker fails the test instead of hanging the suite.
LOST_WORKER = """
import json, os, signal, sys, time
from metricgraph import cli, quadruples, search

def no_child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False

parent = os.getpid()
quadruples._usable_cpus = lambda: 2
assert search("C44", 6, jobs=2) == search("C44", 6) and no_child_left()
kernel, min_n, direction = quadruples._CONJECTURES["C44"]

def failing_in_a_child(n, nbr):
    if n == 7:
        if os.getpid() != parent:
            if sys.argv[2] == "raise":
                raise ValueError("boom")
            os.kill(os.getpid(), signal.SIGKILL)
        # The parent holds its first n = 7 class until the child is gone, so
        # the child surely reaches one, however the shards fall.
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
    return kernel(n, nbr)

quadruples._CONJECTURES["C44"] = (failing_in_a_child, min_n, direction)
if sys.argv[1] == "cli":
    code = cli.main(["search", "--conjecture", "4.4", "--max-n", "7", "--jobs", "2"])
    sys.stderr.write(f"no child left: {no_child_left()}\\n")
    sys.exit(code)
t0 = time.perf_counter()
try:
    search("C44", 7, jobs=2)
    raised = None
except ChildProcessError as exc:
    raised = str(exc)
print(json.dumps({"raised": raised, "seconds": time.perf_counter() - t0, "no_child_left": no_child_left()}))
"""


@pytest.mark.parametrize("entry", ["library", "cli"])
def test_a_lost_worker_raises_and_leaves_no_child(entry):
    """A worker killed by SIGKILL (as the OOM killer would) makes a jobs = 2
    search raise `ChildProcessError` at once, which the CLI writes as one
    error document with exit 2; every child is reaped either way."""
    env = {**os.environ, "PYTHONPATH": str(Path(quadruples.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", LOST_WORKER, entry, "kill"], env=env,
                          capture_output=True, text=True, timeout=60)
    if entry == "library":
        assert proc.returncode == 0, proc.stderr
        outcome = json.loads(proc.stdout)
        assert outcome["raised"] is not None and "wait status" in outcome["raised"]
        assert outcome["seconds"] < 10
        assert outcome["no_child_left"]
    else:
        assert proc.returncode == 2, proc.stderr
        doc = json.loads(proc.stdout)
        assert list(doc) == ["error", "message"] and doc["error"] == "ChildProcessError"
        assert proc.stderr.endswith("no child left: True\n")


def test_a_failing_worker_reports_its_exception():
    """A kernel that raises in a forked worker reaches the CLI as one
    `ChildProcessError` document carrying the exception's type and text,
    with exit 2; every child is reaped."""
    env = {**os.environ, "PYTHONPATH": str(Path(quadruples.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", LOST_WORKER, "cli", "raise"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    doc = json.loads(proc.stdout)
    assert list(doc) == ["error", "message"] and doc["error"] == "ChildProcessError"
    assert "ValueError: boom" in doc["message"]
    assert proc.stderr.endswith("no child left: True\n")


DRAINING_WORKER = """
import json, os
from metricgraph import quadruples

parent = os.getpid()
quadruples._usable_cpus = lambda: 2
kernel, min_n, direction = quadruples._CONJECTURES["C44"]

def failing_in_a_child(n, nbr):
    if os.getpid() != parent:
        raise ValueError("boom")
    return kernel(n, nbr)

quadruples._CONJECTURES["C44"] = (failing_in_a_child, min_n, direction)
check, parent_shards = quadruples._check_shard, []

def counted(*args):
    if os.getpid() == parent:
        parent_shards.append(args[-1])
        if len(parent_shards) == 1:  # hold the first shard until the child is gone
            os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT)
    return check(*args)

quadruples._check_shard = counted
try:
    quadruples.search("C44", 7, jobs=2)
    raised = None
except ChildProcessError as exc:
    raised = str(exc)
print(json.dumps({"raised": raised, "parent_shards": len(parent_shards)}))
"""


def test_a_failing_worker_empties_the_queue():
    """A worker whose kernel raises reads the shard queue to its end before
    it exits, so the parent raises after the shard it holds instead of
    checking the other shards itself."""
    env = {**os.environ, "PYTHONPATH": str(Path(quadruples.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", DRAINING_WORKER], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    outcome = json.loads(proc.stdout)
    assert "ValueError: boom" in outcome["raised"]
    assert outcome["parent_shards"] < 8, outcome


def test_sweeps_compute_rows_and_graphs_only_where_needed(monkeypatch):
    """At n <= 7 the kernel computes BFS rows for C42 only on the cycles
    with n >= 5, and for C44 only on the classes of diameter >= 4, one BFS
    per vertex of each; no class violates, so no `Graph` is built."""
    calls = Counter()
    rows, bfs, build = quadruples._distance_rows, quadruples._bfs_from, quadruples.graph_from_mask
    monkeypatch.setattr(quadruples, "_distance_rows", lambda n, nbr: calls.update(["rows"]) or rows(n, nbr))
    monkeypatch.setattr(quadruples, "_bfs_from", lambda adj, src: calls.update(["bfs"]) or bfs(adj, src))
    monkeypatch.setattr(quadruples, "graph_from_mask", lambda n, mask: calls.update(["graph"]) or build(n, mask))
    graphs = [g for n in range(3, 8) for g in oracles.class_graphs(n)]
    c42 = [g for g in graphs if classify_shape(g).is_cycle and g.n >= 5]
    c44 = [g for g in graphs if max(map(max, connected_distances(g))) >= 4]
    c42_bfs, c44_bfs = sum(g.n for g in c42), sum(g.n for g in c44)
    assert (len(c42), len(c44), c42_bfs, c44_bfs) == (3, 102, 18, 703)  # of 994 and 992 classes
    assert search("C42", 7).graphs_checked == 994
    assert calls == {"rows": len(c42), "bfs": c42_bfs}
    calls.clear()
    assert search("C44", 7).graphs_checked == 992
    assert calls == {"rows": len(c44), "bfs": c44_bfs}


def test_pooled_search_matches_in_process_at_n8(monkeypatch):
    """Real forked workers, shards done in any order: each capped report is the
    first k violations of the uncapped in-process one, byte for byte.  The
    in-process sweep builds one `Graph` per violating class and no other."""
    built = []
    build = quadruples.graph_from_mask
    monkeypatch.setattr(quadruples, "graph_from_mask", lambda n, mask: built.append(mask) or build(n, mask))
    full = search("C44", 8, max_violations=100)
    monkeypatch.undo()
    assert hashlib.sha256(full.to_json().encode()).hexdigest() == (
        "63df4e1cba1ff5a92186f38097434d3c9606ffdba6c89beb6071aef933ceb896")
    assert len(full.violations) == 2
    assert len(built) == len({v.graph for v in full.violations})
    for k in (1, 2, 100):
        capped = full._replace(violations=full.violations[:k])
        assert search("C44", 8, max_violations=k, jobs=2).to_json() == capped.to_json()


def test_assemble_report_caps_violations():
    even, odd = (0, 2, 4, 6), (1, 3, 5, 7)
    per_shard = [(1, [(8, 5, even)]), (2, [(8, 3, odd), (8, 3, even)]), (0, [])]
    report = assemble_report("C44", 8, per_shard, max_violations=2)
    assert report.graphs_checked == 3
    g = graph_from_mask(8, 3)
    assert report.violations == (  # (n, mask) order; one graph's own order kept
        ConjectureViolation("C44", g, ("v1", "v3", "v5", "v7"), "ii_implies_i"),
        ConjectureViolation("C44", g, ("v0", "v2", "v4", "v6"), "ii_implies_i"),
    )


def test_shard_results_are_json_data(monkeypatch):
    """A shard's result is ints and tuples only, so it round-trips through
    JSON (with tuples read back as lists)."""
    monkeypatch.setitem(quadruples._CONJECTURES, "C44", (lambda n, nbr: [(0,)], 4, "ii_implies_i"))
    classes, records = result = quadruples._check_shard("C44", 100, split_trees(4, 6, 8)[0])
    assert classes > 0 and len(records) == min(classes, 100)
    as_lists = [classes, [[n, mask, list(w)] for n, mask, w in records]]
    assert json.loads(json.dumps(result)) == as_lists
