"""Seeded request stream for the `construct-mixed` workload.

Every request is derived from `(seed, index)` alone, so a given seed always
yields byte-identical input files, whatever else was generated before.  The
generator is stdlib-only and never imports the program under test: the
expected answers it records come from how the inputs were built, not from
metricgraph.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

KINDS = ("embed", "ceil-embed", "roundtrip", "validate")
SIZES = (8, 16, 32, 64)

# One pass: every kind at every size, in an order that spreads the n = 64
# requests evenly over the pass.
CYCLE = tuple(
    (KINDS[k], SIZES[(k + step) % len(SIZES)])
    for step in range(len(SIZES))
    for k in range(len(KINDS))
)


@dataclass(frozen=True)
class Request:
    """One client request: its input file and what a correct answer is.

    The oracle checks `embed`/`ceil-embed` outputs against `points` and
    `dist`, a `roundtrip` output against `text` itself, and a `validate`
    report against the planted `(i, j, k)` `witness`.
    """

    index: int
    kind: str
    n: int
    text: str
    points: tuple[str, ...] = ()
    dist: tuple[tuple[Fraction, ...], ...] = ()
    witness: tuple[int, int, int] | None = None


def dump_json(doc: dict) -> str:
    """The serialization the program uses for its own JSON files."""
    return json.dumps(doc, sort_keys=True, separators=(",", ": ")) + "\n"


def _metric_text(points: list[str], rows: list[list[int | str]]) -> str:
    return dump_json({"points": points, "distances": rows})


def integer_metric(rng: random.Random, n: int) -> list[list[int]]:
    """Symmetric table with off-diagonal entries in [3, 6]; any such table
    is a metric because 6 <= 3 + 3."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(3, 6)
    return rows


def make_embed(rng: random.Random, index: int, n: int) -> Request:
    points = [f"x{i}" for i in range(n)]
    rows = integer_metric(rng, n)
    return Request(index, "embed", n, _metric_text(points, rows), tuple(points),
                   tuple(tuple(Fraction(v) for v in row) for row in rows))


def make_ceil_embed(rng: random.Random, index: int, n: int) -> Request:
    """Decimal entries in [1, 2] at hundredth steps, written as exact
    decimal strings; the triangle inequality holds because 2 <= 1 + 1."""
    points = [f"r{i}" for i in range(n)]
    hundredths = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            hundredths[i][j] = hundredths[j][i] = rng.randint(100, 200)
    text_rows = [[f"{h // 100}.{h % 100:02d}" if h else 0 for h in row] for row in hundredths]
    dist = tuple(tuple(Fraction(h, 100) for h in row) for row in hundredths)
    return Request(index, "ceil-embed", n, _metric_text(points, text_rows), tuple(points), dist)


def random_connected_graph(rng: random.Random, n: int) -> tuple[list[str], list[list[int]]]:
    """Random spanning tree plus about n extra edges, as sorted i < j pairs."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for k in range(1, n):
        attach = rng.choice(order[:k])
        edges.add((min(order[k], attach), max(order[k], attach)))
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        edges.add((min(i, j), max(i, j)))
    return [f"v{i}" for i in range(n)], [[i, j] for i, j in sorted(edges)]


def make_roundtrip(rng: random.Random, index: int, n: int) -> Request:
    vertices, edges = random_connected_graph(rng, n)
    return Request(index, "roundtrip", n, dump_json({"vertices": vertices, "edges": edges}))


def make_validate(rng: random.Random, index: int, n: int) -> Request:
    """A [3, 6] table with exactly one violated triangle.

    d(i, j) = 7 exceeds d(i, k) + d(k, j) = 3 + 3, and every other route
    m from i to j is made at least 7 long, so (i, j, k) is the only
    violating triple up to swapping i and j.
    """
    points = [f"q{i}" for i in range(n)]
    rows = integer_metric(rng, n)
    i, j, k = rng.sample(range(n), 3)
    i, j = min(i, j), max(i, j)
    rows[i][j] = rows[j][i] = 7
    rows[i][k] = rows[k][i] = 3
    rows[k][j] = rows[j][k] = 3
    for m in range(n):
        if m not in (i, j, k) and rows[i][m] + rows[m][j] < 7:
            rows[m][j] = rows[j][m] = 4
    return Request(index, "validate", n, _metric_text(points, rows), witness=(i, j, k))


_MAKERS = {
    "embed": make_embed,
    "ceil-embed": make_ceil_embed,
    "roundtrip": make_roundtrip,
    "validate": make_validate,
}


def request(seed: int, index: int) -> Request:
    """Request number `index` of the stream for `seed`."""
    kind, n = CYCLE[index % len(CYCLE)]
    rng = random.Random(f"construct-mixed:{seed}:{index}")
    return _MAKERS[kind](rng, index, n)
