"""Acceptance suite: one test per release criterion, exact tolerances.

Each criterion prints a single pass/fail line (visible with `pytest -s`).
All comparisons are exact: rational arithmetic for distances, structural
equality for graphs.  Random instances use fixed seeds.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from metricgraph import (
    MetricSpace,
    between,
    ceil_embed,
    check_conjecture_42,
    check_conjecture_44,
    compute_x2_set,
    cycle_graph,
    embed,
    geodesic_distances,
    geodesic_metric,
    induced_subgraph,
    is_connected,
    line_embed,
    mb_check,
    plq_classify,
    quad_inequality,
    realize,
    search,
    shortest_path,
    verify_map,
)

import oracles
import randgen

EGYPTIAN = MetricSpace.from_rows(["x1", "x2", "x3"], [[0, 3, 4], [3, 0, 5], [4, 5, 0]])


def _criterion(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {description}: {status}{suffix}")
    assert ok, f"criterion {num} failed{suffix}"


def test_criterion_1_triangle_embeds_into_twelve_cycle():
    t0 = time.perf_counter()
    result = embed(EGYPTIAN)
    ok = (
        result.graph.n == 12
        and is_connected(result.graph)  # connected and 2-regular: the 12-cycle
        and all(result.graph.degree(i) == 2 for i in range(12))
        and verify_map(EGYPTIAN, result.graph) is None
    )
    elapsed = time.perf_counter() - t0
    _criterion(
        1,
        "embedding the (3,4,5) triangle yields the 12-cycle, verified exactly",
        ok and elapsed < 1.0,
        f"{result.graph.n} vertices, {elapsed:.3f}s",
    )


def test_criterion_2_realize_round_trip():
    rng = random.Random(2025)
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for _ in range(200):
        g = randgen.random_connected_graph(rng, rng.randint(1, 10))
        result = realize(geodesic_metric(g))
        if result.graph != g:
            ok = False
            break
        checked += 1
    elapsed = time.perf_counter() - t0
    _criterion(
        2,
        "realize inverts the geodesic metric on 200 random graphs, n <= 10",
        ok and checked == 200 and elapsed < 10.0,
        f"{checked} graphs, {elapsed:.2f}s",
    )


def test_criterion_3_embed_soundness():
    rng = random.Random(2026)
    t0 = time.perf_counter()
    instances = [randgen.random_subset_metric(rng, 8) for _ in range(100)]
    instances += [
        randgen.random_int_metric_rejection(rng, rng.randint(3, 5))
        for _ in range(20)
    ]
    ok = True
    for m in instances:
        result = embed(m)
        expected_aux = sum(int(m.d(x, y)) - 1 for (x, y) in compute_x2_set(m))
        if verify_map(m, result.graph) is not None:
            ok = False
            break
        if result.graph.n != m.n + expected_aux:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    _criterion(
        3,
        "embed verifies exactly and matches the vertex-count formula on "
        "120 random integer metrics, n <= 8",
        ok and elapsed < 30.0,
        f"{len(instances)} metrics, {elapsed:.2f}s",
    )


def test_criterion_4_ceiling_distortion():
    rng = random.Random(2027)
    ok = True
    for _ in range(100):
        m = randgen.random_decimal_metric(rng, 6)
        result = ceil_embed(m)
        d_g = geodesic_distances(result.graph)
        for i in range(m.n):
            for j in range(i + 1, m.n):
                gi = result.graph.index(m.labels[i])
                gj = result.graph.index(m.labels[j])
                if not (m.dist[i][j] <= d_g[gi][gj] < m.dist[i][j] + 1):
                    ok = False
    _criterion(
        4,
        "ceiling embedding keeps d <= d_G < d + 1 on 100 random rational "
        "metrics, exact comparison",
        ok,
    )


def test_criterion_5_adjacency_and_path_betweenness():
    edge_pairs = 0
    path_interiors = 0
    ok = True
    for n in range(1, 7):
        for g in oracles.class_graphs(n):
            m = geodesic_metric(g)
            dist = geodesic_distances(g)
            for i in range(n):
                for j in range(i + 1, n):
                    if g.has_edge(i, j) != (dist[i][j] == 1):
                        ok = False
                    edge_pairs += 1
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    x, z = g.vertex_labels[i], g.vertex_labels[j]
                    for y in shortest_path(g, x, z)[1:-1]:
                        if not between(m, x, y, z):
                            ok = False
                        path_interiors += 1
    _criterion(
        5,
        "adjacency <=> distance 1 and shortest-path interiors lie between "
        "endpoints, all connected graphs n <= 6",
        ok,
        f"{edge_pairs} pairs, {path_interiors} interior vertices",
    )


def test_criterion_6_conjecture_42_sweep():
    t0 = time.perf_counter()
    swept = 0
    ok = True
    for n in range(2, 8):  # every nonempty connected graph has n >= 2
        for g in oracles.class_graphs(n):
            if check_conjecture_42(g) is not None:
                ok = False
            swept += 1
    report = search("C42", 7, max_violations=10)
    elapsed = time.perf_counter() - t0
    ok = ok and swept == 995 and report.graphs_checked == 994 and not report.violations
    _criterion(
        6,
        "betweenness-class membership is exactly {paths, C4} over all "
        "connected graphs n <= 7",
        ok and elapsed < 300.0,
        f"{swept} graphs swept, {elapsed:.1f}s",
    )


def test_criterion_7_quad_inequality_sweep():
    subsets = 0
    ok = True
    for n in range(4, 7):
        for g in oracles.class_graphs(n):
            m = geodesic_metric(g)
            for subset in itertools.combinations(m.labels, 4):
                sub = m.restrict(subset)
                slacks = [
                    quad_inequality(sub, ordering).slack
                    for ordering in itertools.permutations(subset)
                ]
                plq = plq_classify(sub)
                equilateral = plq is not None and plq.equilateral
                if any(s < 0 for s in slacks):
                    ok = False
                if (min(slacks) == 0) != equilateral:
                    ok = False
                subsets += 1
    _criterion(
        7,
        "slack >= 0 for every ordering of every 4-subset (n <= 6), with "
        "equality exactly at equilateral quadruples",
        ok,
        f"{subsets} subsets x 24 orderings",
    )


def test_criterion_8_conjecture_44_evidence():
    t0 = time.perf_counter()
    report = search("C44", 7, max_violations=10)
    zero_small = report.graphs_checked == 992 and not report.violations

    c8 = cycle_graph(8)
    target = ("v0", "v2", "v4", "v6")
    violations = {v.witness: v.direction for v in check_conjecture_44(c8)}
    targeted = violations.get(target) == "ii_implies_i"

    # replay the targeted instance against the brute-force oracle
    sub = [c8.index(lab) for lab in target]
    brute = oracles.brute_distance_matrix(c8)
    dists = sorted(brute[i][j] for i, j in itertools.combinations(sub, 2))
    induced_edgeless = induced_subgraph(c8, target).edge_count() == 0
    oracle_ok = dists == [2, 2, 2, 2, 4, 4] and induced_edgeless

    elapsed = time.perf_counter() - t0
    _criterion(
        8,
        "no 4-subset disagreement up to n = 7; the even subset of the "
        "8-cycle is an equilateral quadruple without an induced 4-cycle",
        zero_small and targeted and oracle_ok and elapsed < 300.0,
        f"{report.graphs_checked} graphs, {elapsed:.1f}s",
    )


def test_criterion_9_line_embedding_of_mb_spaces():
    rng = random.Random(2028)
    ok = True
    for _ in range(50):
        m = randgen.random_line_subset_metric(rng, 5, 9)
        if mb_check(m) is not None:
            ok = False
        coords = line_embed(m)
        if coords is None:
            ok = False
            continue
        for i in range(m.n):
            for j in range(m.n):
                if abs(coords[m.labels[i]] - coords[m.labels[j]]) != m.dist[i][j]:
                    ok = False
    c4_metric = geodesic_metric(cycle_graph(4))
    c4_none = line_embed(c4_metric) is None
    oracle_none = oracles.line_embed_by_signs(c4_metric) is None
    _criterion(
        9,
        "50 betweenness-class metrics (>= 5 points) embed into the line "
        "exactly; the 4-cycle metric does not, per the sign oracle",
        ok and c4_none and oracle_none,
    )
