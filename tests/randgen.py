"""Seeded random generators for graphs and metric spaces used across tests."""

from __future__ import annotations

import random
from fractions import Fraction

from metricgraph import Graph, MetricSpace, geodesic_metric, is_connected


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Random spanning tree plus a random sprinkle of extra edges."""
    labels = [f"v{i}" for i in range(n)]
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for k in range(1, n):
        attach = rng.choice(order[:k])
        edges.add((min(order[k], attach), max(order[k], attach)))
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in edges and rng.random() < 0.25:
                edges.add((i, j))
    g = Graph.from_edges(labels, sorted(edges))
    assert is_connected(g)
    return g


def random_sparse_graph(rng: random.Random) -> Graph:
    """Random spanning tree on 8..16 vertices plus 1..8 extra edges."""
    n = rng.randint(8, 16)
    edges = set()
    for k in range(1, n):
        attach = rng.randrange(k)
        edges.add((attach, k))
    non_edges = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    edges.update(rng.sample(non_edges, rng.randint(1, 8)))
    return Graph.from_edges([f"v{i}" for i in range(n)], sorted(edges))


def random_subset_metric(rng: random.Random, max_points: int,
                         min_points: int = 2) -> MetricSpace:
    """Integer metric sampled as a point subset of a random graph metric."""
    host_n = rng.randint(max(3, max_points), max_points + 4)
    g = random_connected_graph(rng, host_n)
    k = rng.randint(min_points, max_points)
    picked = sorted(rng.sample(range(host_n), k))
    m = geodesic_metric(g)
    return m.restrict([m.labels[i] for i in picked])


def random_int_metric_rejection(rng: random.Random, n: int, lo: int = 1, hi: int = 4,
                                max_tries: int = 2000) -> MetricSpace:
    """Random symmetric integer table, rejection-sampled on the triangle
    inequality; falls back to a tighter value range that cannot fail."""
    labels = [f"p{i}" for i in range(n)]
    for attempt in range(max_tries):
        a, b = (lo, hi) if attempt < max_tries - 1 else (hi // 2 + 1, hi)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.randint(a, b)
        ok = all(
            rows[i][j] <= rows[i][k] + rows[k][j]
            for i in range(n)
            for j in range(n)
            for k in range(n)
            if i != j and j != k and i != k
        )
        if ok:
            return MetricSpace.from_rows(labels, rows)
    raise AssertionError("rejection sampling failed to produce a metric")


def random_decimal_metric(rng: random.Random, max_points: int) -> MetricSpace:
    """Rational metric with finite-decimal entries.

    Alternates between (a) integer graph-subset metrics scaled by a random
    decimal factor and (b) tables with entries in [1, 2] drawn at hundredth
    granularity, where the triangle inequality holds automatically.
    """
    if rng.random() < 0.5:
        m = random_subset_metric(rng, max_points)
        factor = Fraction(rng.randint(3, 27), 10)
        rows = [[v * factor for v in row] for row in m.dist]
        return MetricSpace(m.labels, tuple(tuple(row) for row in rows))
    n = rng.randint(2, max_points)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = Fraction(rng.randint(100, 200), 100)
    return MetricSpace(tuple(f"p{i}" for i in range(n)),
                       tuple(tuple(row) for row in rows))


def random_line_subset_metric(rng: random.Random, min_points: int = 5,
                              max_points: int = 9) -> MetricSpace:
    """Metric of distinct integer positions on a line (a path-graph subset),
    hence in the betweenness-forced-additivity class."""
    k = rng.randint(min_points, max_points)
    positions = sorted(rng.sample(range(0, 40), k))
    labels = [f"p{i}" for i in range(k)]
    rows = [[abs(a - b) for b in positions] for a in positions]
    return MetricSpace.from_rows(labels, rows)
