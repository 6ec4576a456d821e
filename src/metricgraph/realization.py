"""Realizing and embedding metric spaces as graph geodesic metrics.

One host builder, `embed`, behind three constructions:

* `embed` — any integer metric embeds isometrically: each irreducible
  pair (distance >= 2, nothing between) gets a private subdivision path
  of fresh auxiliary vertices whose length equals the distance.
* `realize` — `embed` behind the Kay-Chartrand gate: when every pair at
  distance >= 2 has a point between it, no pair is irreducible and the
  host is the distance-1 graph on the points themselves.
* `ceil_embed` — arbitrary rational metrics embed after rounding every
  distance up to the nearest integer, with additive distortion < 1.

Every construction verifies its own output by BFS before returning.  The
constructions cannot fail on valid inputs, so a verification failure
raises `InternalVerificationFailure` rather than a user-facing error.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ConditionFailed, Disconnected, InternalVerificationFailure, ParseError, TooLarge
from .graph import MAX_HOST_VERTICES, Graph, _bfs_from
from .metric import (
    RESERVED_PREFIX,
    MetricSpace,
    Rational,
    ceiling_metric,
    compute_x2_set,
    kay_chartrand_check,
)

AUX_PREFIX = "__aux"


class RealizationResult(NamedTuple):
    """A host graph whose geodesic metric contains the input metric.

    The metric's points are the graph's first `graph.n - aux_count`
    vertices, in the metric's order and under their own labels; the other
    `aux_count` vertices are auxiliary subdivision vertices.
    """

    graph: Graph
    aux_count: int


class DistanceMismatch(NamedTuple):
    """Witness of a failed map verification: d(pair) != d_G(pair)."""

    pair: tuple[str, str]
    expected: Rational
    actual: int


def verify_map(m: MetricSpace, g: Graph) -> DistanceMismatch | None:
    """BFS check that each point of `m`, taken as the vertex of `g` with
    the same label, keeps every pairwise distance exactly.

    Returns None on success, else the first mismatching pair with expected
    and actual distances.  Raises `UnknownLabel` when a point is not a
    vertex of `g`, then `Disconnected` when the first point's BFS leaves a
    vertex of `g` unreached.
    """
    at = [g.index(lab) for lab in m.labels]
    for i, x in enumerate(m.labels):
        dist = _bfs_from(g.adjacency, at[i])
        if i == 0 and None in dist:
            raise Disconnected("verification requires a connected host graph")
        row = m.dist[i]
        for j in range(i + 1, m.n):
            actual = dist[at[j]]
            if row[j] != actual:
                return DistanceMismatch((x, m.labels[j]), row[j], actual)  # type: ignore[arg-type]
    return None


def aux_labels(x: str, y: str, length: int) -> list[str]:
    """Fresh interior vertex labels for the subdivision path of pair {x, y}.

    Each label has `\\` escaped as `\\\\` and `:` as `\\:` before the join, so
    no escaped label holds an unescaped `:` and distinct pairs never share
    a label; labels with neither character keep their bytes.
    """
    lo, hi = (lab.replace("\\", "\\\\").replace(":", "\\:") for lab in sorted((x, y)))
    return [f"{AUX_PREFIX}::{lo}::{hi}::{k}" for k in range(1, length)]


def embed(m: MetricSpace) -> RealizationResult:
    """The one host builder: an isometric embedding of an integer metric.

    Starts from the distance-1 edges on the points and adds, for each
    irreducible pair, a private path of fresh interior vertices whose
    length is the pair's distance, read once as an `int`.  BFS verification
    of all pairwise distances runs before returning.  Raises `TooLarge`
    above `MAX_HOST_VERTICES`, then `ParseError` for reserved point labels.
    """
    x2 = compute_x2_set(m)
    lengths = [int(m.d(x, y)) for x, y in x2]
    aux_count = sum(lengths) - len(lengths)
    if m.n + aux_count > MAX_HOST_VERTICES:
        raise TooLarge(f"the host graph would have more than {MAX_HOST_VERTICES} vertices")
    if x2 and any(lab.startswith(RESERVED_PREFIX) for lab in m.labels):
        raise ParseError(f"point labels starting with {RESERVED_PREFIX!r} are reserved")
    labels = list(m.labels)
    edges = [(i, j) for i in range(m.n) for j in range(i + 1, m.n) if m.dist[i][j] == 1]
    for (x, y), length in zip(x2, lengths):
        lo, hi = (x, y) if x < y else (y, x)
        first = len(labels)
        labels.extend(aux_labels(x, y, length))
        chain = [m.index(lo), *range(first, len(labels)), m.index(hi)]
        edges.extend(zip(chain, chain[1:]))
    g = Graph.from_edges(labels, edges)
    mismatch = verify_map(m, g)
    if mismatch is not None:
        raise InternalVerificationFailure(
            f"constructed graph does not reproduce the metric: "
            f"d{mismatch.pair} should be {mismatch.expected}, got {mismatch.actual}"
        )
    return RealizationResult(g, aux_count)


def realize(m: MetricSpace) -> RealizationResult:
    """Exact realization: vertices are the points, edges the distance-1 pairs.

    `embed` behind the Kay-Chartrand gate: when every pair at distance >= 2
    has a between point, no pair is irreducible.  Otherwise raises
    `ConditionFailed` with the first violating pair, and builds nothing.
    """
    witness = kay_chartrand_check(m)
    if witness is not None:
        raise ConditionFailed(witness)
    return embed(m)


def ceil_embed(m: MetricSpace) -> RealizationResult:
    """Embed an arbitrary rational metric with additive distortion < 1.

    Rounds every distance up to the nearest integer and embeds the
    resulting integer metric; `embed` has already verified by BFS that
    d_G equals that ceiling table.  What is left is d(x,y) <= ceil(d(x,y))
    < d(x,y) + 1 for all pairs, by exact rational comparison on the table.
    """
    ceiling = ceiling_metric(m)
    result = embed(ceiling)
    for i, x in enumerate(m.labels):
        for j in range(i + 1, m.n):
            d_m, d_g = m.dist[i][j], ceiling.dist[i][j]
            if not d_m <= d_g < d_m + 1:
                raise InternalVerificationFailure(
                    f"distortion bound violated for ({x}, {m.labels[j]}): d = {d_m}, d_G = {d_g}")
    return result
