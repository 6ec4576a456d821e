"""Realizing and embedding metric spaces as graph geodesic metrics.

Three constructions:

* `realize` — when every pair at distance >= 2 has a point between it,
  the graph on the points themselves with edges exactly at distance-1
  pairs reproduces the metric as its geodesic distance.
* `embed` — any integer metric embeds isometrically: each irreducible
  pair (distance >= 2, nothing between) gets a private subdivision path
  of fresh auxiliary vertices whose length equals the distance.
* `ceil_embed` — arbitrary rational metrics embed after rounding every
  distance up to the nearest integer, with additive distortion < 1.

Every construction verifies its own output by BFS before returning.  The
constructions cannot fail on valid inputs, so a verification failure
raises `InternalVerificationFailure` rather than a user-facing error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import (
    ConditionFailed,
    Disconnected,
    InternalVerificationFailure,
    UnknownLabel,
)
from .graph import Graph, _bfs_from, is_connected
from .metric import (
    MetricSpace,
    Rational,
    _require_integer,
    ceiling_metric,
    compute_x2_set,
    kay_chartrand_check,
)

AUX_PREFIX = "__aux"


@dataclass(frozen=True)
class EmbeddingMap:
    """Injective assignment of metric-space points to graph vertices."""

    assignment: dict[str, str]
    verified: bool = False

    def __post_init__(self) -> None:
        values = list(self.assignment.values())
        if len(set(values)) != len(values):
            raise ValueError("embedding map must be injective")

    def target(self, label: str) -> str:
        try:
            return self.assignment[label]
        except KeyError:
            raise UnknownLabel(f"point {label!r} is not mapped") from None


@dataclass(frozen=True)
class RealizationResult:
    graph: Graph
    map: EmbeddingMap
    aux_count: int


@dataclass(frozen=True)
class DistanceMismatch:
    """Witness of a failed map verification.

    kind "distance": d(pair) != d_G(mapped pair), with expected/actual.
    kind "not_onto": the map misses `actual` graph vertices (isometry check).
    """

    pair: tuple[str, str]
    expected: Rational
    actual: int
    kind: str = "distance"


def verify_map(
    m: MetricSpace, g: Graph, emb: EmbeddingMap, require_onto: bool = False
) -> DistanceMismatch | None:
    """BFS check that the map preserves every pairwise distance exactly.

    Returns None on success, else the first mismatching pair with expected
    and actual distances.  With `require_onto`, a non-surjective map (an
    embedding that is not an isometry of the whole graph) also fails.
    """
    if not is_connected(g):
        raise Disconnected("verification requires a connected host graph")
    for lab in m.labels:
        g.index(emb.target(lab))
    if require_onto:
        targets = {emb.target(lab) for lab in m.labels}
        if len(targets) != g.n:
            return DistanceMismatch(
                (m.labels[0], m.labels[-1]), 0,
                g.n - len(targets), kind="not_onto",
            )
    for i, x in enumerate(m.labels):
        dist = _bfs_from(g, g.index(emb.target(x)))
        for j in range(i + 1, m.n):
            y = m.labels[j]
            actual = dist[g.index(emb.target(y))]
            if m.dist[i][j] != actual:
                return DistanceMismatch((x, y), m.dist[i][j], actual)  # type: ignore[arg-type]
    return None


def _identity_map(m: MetricSpace) -> EmbeddingMap:
    return EmbeddingMap({lab: lab for lab in m.labels})


def _distance_one_edges(m: MetricSpace) -> list[tuple[int, int]]:
    return [
        (i, j)
        for i in range(m.n)
        for j in range(i + 1, m.n)
        if m.dist[i][j] == 1
    ]


def _verified(m: MetricSpace, g: Graph, aux_count: int) -> RealizationResult:
    emb = _identity_map(m)
    mismatch = verify_map(m, g, emb)
    if mismatch is not None:
        raise InternalVerificationFailure(
            f"constructed graph does not reproduce the metric: "
            f"d{mismatch.pair} should be {mismatch.expected}, got {mismatch.actual}"
        )
    return RealizationResult(graph=g, map=replace(emb, verified=True), aux_count=aux_count)


def realize(m: MetricSpace) -> RealizationResult:
    """Exact realization: vertices are the points, edges the distance-1 pairs.

    Requires an integer metric in which every pair at distance >= 2 has a
    between point; otherwise raises `ConditionFailed` with the first
    violating pair.  The identity map is verified by BFS before returning.
    """
    _require_integer(m)
    witness = kay_chartrand_check(m)
    if witness is not None:
        raise ConditionFailed(witness)
    g = Graph.from_edges(m.labels, _distance_one_edges(m))
    return _verified(m, g, aux_count=0)


def aux_labels(x: str, y: str, length: int) -> list[str]:
    """Fresh interior vertex labels for the subdivision path of pair {x, y}."""
    lo, hi = (x, y) if x < y else (y, x)
    return [f"{AUX_PREFIX}::{lo}::{hi}::{k}" for k in range(1, length)]


def embed(m: MetricSpace) -> RealizationResult:
    """Isometric embedding of an integer metric into a graph metric.

    Starts from the distance-1 edges on the points and adds, for each
    irreducible pair, a private path of fresh interior vertices whose
    length equals the pair's distance.  Interior vertex sets of distinct
    pairs are disjoint by construction.  BFS verification of all pairwise
    distances runs before returning.
    """
    _require_integer(m)
    x2 = compute_x2_set(m)
    labels = list(m.labels)
    edges = _distance_one_edges(m)
    aux_count = 0
    for x, y in x2:
        length = int(m.d(x, y))
        interior = aux_labels(x, y, length)
        chain = [m.index(x) if x < y else m.index(y)]
        for lab in interior:
            labels.append(lab)
            chain.append(len(labels) - 1)
        chain.append(m.index(y) if x < y else m.index(x))
        edges.extend((min(a, b), max(a, b)) for a, b in zip(chain, chain[1:]))
        aux_count += length - 1
    g = Graph.from_edges(labels, edges)
    return _verified(m, g, aux_count=aux_count)


def ceil_embed(m: MetricSpace) -> RealizationResult:
    """Embed an arbitrary rational metric with additive distortion < 1.

    Rounds every distance up to the nearest integer, embeds the resulting
    integer metric, then asserts d(x,y) <= d_G(x,y) < d(x,y) + 1 for all
    pairs by exact rational comparison.
    """
    result = embed(ceiling_metric(m))
    dist_by_target: dict[str, list[int | None]] = {}
    g = result.graph
    for i, x in enumerate(m.labels):
        tx = result.map.target(x)
        if tx not in dist_by_target:
            dist_by_target[tx] = _bfs_from(g, g.index(tx))
        row = dist_by_target[tx]
        for j in range(i + 1, m.n):
            d_g = row[g.index(result.map.target(m.labels[j]))]
            d_m = m.dist[i][j]
            if d_g is None or not (d_m <= d_g < d_m + 1):
                raise InternalVerificationFailure(
                    f"distortion bound violated for ({x}, {m.labels[j]}): "
                    f"d = {d_m}, d_G = {d_g}"
                )
    return result
