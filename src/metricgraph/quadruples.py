"""Betweenness-forced additivity, line embeddings, and quadruple checks.

A metric space belongs to the Menger betweenness class when
d(x,z) >= max(d(x,y), d(y,z)) always forces d(x,z) = d(x,y) + d(y,z).
Spaces in the class with at least five points embed isometrically into the
real line; the four-point obstructions are exactly the pseudo-linear
quadruples, whose opposite-pair distances are (s, s, t, t) with both
diagonals s + t.

This module also hosts the finite-graph checkers for the two conjectures
tying these notions to graph shape (paths and the 4-cycle) and to induced
4-cycles, plus an exhaustive search harness over enumerated small graphs.
The checkers report evidence - consistency on the searched range or
replayable violations - never verdicts about the conjectures themselves.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .enumeration import HARD_CAP, enumerate_connected_graphs
from .errors import (
    EmptyGraph,
    InternalVerificationFailure,
    ParseError,
    TooLarge,
    TooSmall,
    WrongArity,
)
from .graph import Graph, classify_shape, connected_distances, graph_doc
from .metric import MetricSpace, Rational, json_text


# ---------------------------------------------------------------------------
# Menger betweenness class
# ---------------------------------------------------------------------------

def mb_check(m: MetricSpace) -> tuple[str, str, str] | None:
    """Membership in the betweenness-forced-additivity class.

    Returns None when every ordered triple (x, y, z) of distinct points
    with d(x,z) >= max(d(x,y), d(y,z)) satisfies d(x,z) = d(x,y) + d(y,z);
    otherwise the lexicographically first violating triple by point index.
    """
    triple = _mb_violation(m.dist)
    return None if triple is None else tuple(m.labels[i] for i in triple)  # type: ignore[return-value]


def _mb_violation(d: tuple[tuple[Rational, ...], ...]) -> tuple[int, int, int] | None:
    """`mb_check` on the distance rows `d`, as point indices."""
    n = len(d)
    for a in range(n):
        da = d[a]
        for b in range(n):
            if b == a:
                continue
            dab, db = da[b], d[b]
            for c in range(n):
                if c == a or c == b:
                    continue
                dac = da[c]
                if dac >= dab and dac >= db[c] and dac != dab + db[c]:
                    return (a, b, c)
    return None


def line_embed(m: MetricSpace) -> dict[str, Rational] | None:
    """Isometric embedding into the rational line, or None.

    Gauge: a point z sits at +d(p0, z), or at -d(p0, z) when + misses its
    distance to the second point p1, so p0 sits at 0 and p1 at d(p0, p1).
    One pairwise check then confirms every placement.  If an embedding
    exists at all, the gauge-fixed one is found, so None is a definite
    negative.
    """
    d = m.dist
    coords: list[Rational] = list(d[0])
    for k in range(2, m.n):
        if abs(coords[k] - coords[1]) != d[1][k]:
            coords[k] = -coords[k]
    for i in range(m.n):
        for j in range(i + 1, m.n):
            if abs(coords[i] - coords[j]) != d[i][j]:
                return None
    return {lab: coords[i] for i, lab in enumerate(m.labels)}


# ---------------------------------------------------------------------------
# Pseudo-linear quadruples
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PLQ:
    """A matched pseudo-linear quadruple ordering with s <= t."""

    ordering: tuple[str, str, str, str]
    s: Rational
    t: Rational

    @property
    def equilateral(self) -> bool:
        return self.s == self.t


def _require_four(labels: Iterable[str]) -> tuple[str, str, str, str]:
    labs = tuple(labels)
    if len(labs) != 4 or len(set(labs)) != 4:
        raise WrongArity(f"exactly 4 distinct labels required, got {labs}")
    return labs  # type: ignore[return-value]


# The three ways to pair four points into two opposite (diagonal) pairs,
# written as cyclic side orders over point indices 0..3.
_PAIRINGS = ((0, 1, 2, 3), (0, 1, 3, 2), (0, 2, 1, 3))


def plq_classify(m: MetricSpace) -> PLQ | None:
    """Test a four-point space against the pseudo-linear pattern.

    The three essentially distinct pairings are tried in a fixed order;
    the first match is returned, rotated one step if needed so that
    s <= t.  None means no ordering fits the pattern.
    """
    if m.n != 4:
        raise WrongArity(f"pseudo-linear classification needs 4 points, got {m.n}")
    d = m.dist
    for a, b, c, e in _PAIRINGS:
        s = d[a][b]
        t = d[b][c]
        if d[c][e] != s or d[e][a] != t:
            continue
        if d[a][c] != s + t or d[b][e] != s + t:
            continue
        order = (a, b, c, e) if s <= t else (b, c, e, a)
        return PLQ(tuple(m.labels[i] for i in order), min(s, t), max(s, t))  # type: ignore[arg-type]
    return None


@dataclass(frozen=True)
class QuadInequality:
    lhs: Rational
    bound: Fraction
    slack: Fraction


def quad_inequality(m: MetricSpace, ordering: Iterable[str]) -> QuadInequality:
    """Evaluate the diagonal-product bound for an ordered quadruple.

    lhs = d13*d24 - d12*d34 - d41*d23 and bound = p^2 / 8 where p is the
    cyclic perimeter.  The bound holds in every metric space, so a
    negative slack is promoted to an internal error.
    """
    x1, x2, x3, x4 = _require_four(ordering)
    d = m.d
    p = d(x1, x2) + d(x2, x3) + d(x3, x4) + d(x4, x1)
    lhs = d(x1, x3) * d(x2, x4) - d(x1, x2) * d(x3, x4) - d(x4, x1) * d(x2, x3)
    bound = Fraction(p * p, 8)
    slack = bound - lhs
    if slack < 0:
        raise InternalVerificationFailure(
            f"quadruple bound violated for {ordering}: lhs={lhs} > bound={bound}"
        )
    return QuadInequality(lhs=lhs, bound=bound, slack=slack)


# ---------------------------------------------------------------------------
# Conjecture checkers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConjectureViolation:
    conjecture_id: str
    graph: Graph
    witness: tuple[str, ...]
    direction: str


def _shape_in_conjecture(g: Graph) -> bool:
    shape = classify_shape(g)
    return shape.is_path or (shape.is_cycle and shape.size == 4)


def check_conjecture_42(g: Graph) -> ConjectureViolation | None:
    """Compare betweenness-class membership with the path-or-C4 shape test.

    Consistent (None) when the two agree.  The infinite shapes (ray,
    double ray) cannot occur among finite inputs, so the shape side is
    just {path, C4}.  Reads the unvalidated BFS rows of
    `connected_distances`, which raises `Disconnected`.
    """
    d = connected_distances(g)
    if g.edge_count() == 0:
        raise EmptyGraph("conjecture applies to graphs with at least one edge")
    mb_witness = _mb_violation(d)
    shape_ok = _shape_in_conjecture(g)
    if mb_witness is None and not shape_ok:
        return ConjectureViolation("C42", g, (), "mb_implies_shape")
    if mb_witness is not None and shape_ok:
        witness = tuple(g.vertex_labels[i] for i in mb_witness)
        return ConjectureViolation("C42", g, witness, "shape_implies_mb")
    return None


def _c44_status(
    d: tuple[tuple[Rational, ...], ...], quad: tuple[int, int, int, int]
) -> tuple[bool, bool]:
    """(induced subgraph is a 4-cycle, distances form an equilateral
    pseudo-linear quadruple) for the vertices `quad`, read from the rows
    `d` of a graph's geodesic metric, where adjacency is distance 1.

    The induced subgraph is a 4-cycle exactly when it is 2-regular: each
    of the four vertices is adjacent to exactly two of the other three.

    Closed form of the second: for one pairing, all four sides equal s
    and both diagonals 2s.  It matches `plq_classify`'s first fitting
    pairing because with positive distances at most one pairing fits: if
    P (sides s, t) and P' (sides s', t') both did, each one's diagonal pair
    would be a side pair of the other, so s' + t' <= max(s, t) < s + t <=
    max(s', t'), a contradiction.
    """
    a, b, c, e = quad
    da, db = d[a], d[b]
    ab, ac, ae = da[b], da[c], da[e]
    bc, be, ce = db[c], db[e], d[c][e]
    holds_ii = ab == ce and ac == be and ae == bc and (
        ab == ac and ae == 2 * ab or ab == ae and ac == 2 * ab or ac == ae and ab == 2 * ac)
    ab, ac, ae, bc, be, ce = ab == 1, ac == 1, ae == 1, bc == 1, be == 1, ce == 1
    holds_i = (ab + ac + ae == 2 and ab + bc + be == 2
               and ac + bc + ce == 2 and ae + be + ce == 2)
    return holds_i, holds_ii


def four_subset_status(metric: MetricSpace, subset: Iterable[str]) -> tuple[bool, bool]:
    """(induced subgraph is a 4-cycle, distances form an equilateral
    pseudo-linear quadruple) for one 4-vertex subset of a graph, given the
    graph's geodesic metric.  The package itself reaches `_c44_status`
    only through `check_graph`; perfbench's span table names this one."""
    quad = tuple(metric.index(lab) for lab in _require_four(subset))
    return _c44_status(metric.dist, quad)  # type: ignore[arg-type]


def check_conjecture_44(g: Graph) -> list[ConjectureViolation]:
    """All 4-vertex subsets where induced-4-cycle and equilateral
    pseudo-linear status disagree (empty list = consistent on g).
    Reads the unvalidated BFS rows of `connected_distances`, which raises
    `Disconnected`."""
    d = connected_distances(g)
    if g.n < 4:
        raise TooSmall(f"need at least 4 vertices, got {g.n}")
    labels = g.vertex_labels
    out = []
    for quad in itertools.combinations(range(g.n), 4):
        holds_i, holds_ii = _c44_status(d, quad)
        if holds_i != holds_ii:
            direction = "i_implies_ii" if holds_i else "ii_implies_i"
            subset = tuple(labels[i] for i in quad)
            out.append(ConjectureViolation("C44", g, subset, direction))
    return out


# ---------------------------------------------------------------------------
# Search harness
# ---------------------------------------------------------------------------

_CONJECTURES = {"C42": 3, "C44": 4}  # conjecture id -> smallest checkable n


@dataclass(frozen=True)
class ConjectureReport:
    conjecture_id: str
    max_n: int
    graphs_checked: int
    violations: tuple[ConjectureViolation, ...]

    def to_doc(self) -> dict:
        return {
            "conjecture": self.conjecture_id,
            "max_n": self.max_n,
            "graphs_checked": self.graphs_checked,
            "violations": [
                {
                    "graph": graph_doc(v.graph),
                    "witness": list(v.witness),
                    "direction": v.direction,
                }
                for v in self.violations
            ],
        }

    def to_json(self) -> str:
        return json_text(self.to_doc())


def check_graph(conjecture_id: str, g: Graph) -> list[ConjectureViolation]:
    """Per-graph work item of `search`, run in-process or in a pool worker."""
    if conjecture_id == "C42":
        v = check_conjecture_42(g)
        return [] if v is None else [v]
    if conjecture_id == "C44":
        return check_conjecture_44(g)
    raise ParseError(f"unknown conjecture id {conjecture_id!r}; use C42 or C44")


def replay_violation(v: ConjectureViolation) -> bool:
    """Whether `check_graph`, run again on the violation's graph, reports
    this same violation (same witness, in order, and direction); False for
    an unknown conjecture id or a witness label the graph does not have."""
    return v.conjecture_id in _CONJECTURES and v in check_graph(v.conjecture_id, v.graph)


def assemble_report(
    conjecture_id: str,
    max_n: int,
    per_graph: Iterable[list[ConjectureViolation]],
    max_violations: int,
) -> ConjectureReport:
    checked = 0
    kept: list[ConjectureViolation] = []
    for violations in per_graph:
        checked += 1
        for v in violations:
            if len(kept) < max_violations:
                kept.append(v)
    return ConjectureReport(conjecture_id, max_n, checked, tuple(kept))


def search(
    conjecture_id: str,
    max_n: int,
    max_violations: int = 100,
    jobs: int = 1,
) -> ConjectureReport:
    """Run a conjecture checker across every connected isomorphism class
    up to max_n vertices, smallest vertex count first; `TooSmall` when
    max_n is below the conjecture's smallest checkable n (4 for C44).

    With jobs > 1 the checks run in a process pool; the graphs are still
    enumerated here and the results are read back in order, so the report
    is the same for every `jobs`.  jobs == 1 runs in-process, no pool.
    """
    if conjecture_id not in _CONJECTURES:
        raise ParseError(f"unknown conjecture id {conjecture_id!r}; use C42 or C44")
    if not 3 <= max_n <= HARD_CAP:
        raise TooLarge(f"search needs 3 <= max_n <= {HARD_CAP}, got {max_n}")
    min_n = _CONJECTURES[conjecture_id]
    if max_n < min_n:
        raise TooSmall(f"{conjecture_id} search needs max_n >= {min_n}, got {max_n}")
    if jobs < 1:
        raise TooSmall(f"search needs jobs >= 1, got {jobs}")
    if max_violations < 1:
        raise TooSmall(f"search needs max_violations >= 1, got {max_violations}")
    graphs = (
        g
        for n in range(min_n, max_n + 1)
        for g in enumerate_connected_graphs(n)
    )
    check = functools.partial(check_graph, conjecture_id)
    if jobs == 1:
        return assemble_report(conjecture_id, max_n, map(check, graphs), max_violations)
    import multiprocessing  # only a pooled search pays for loading it

    with multiprocessing.Pool(jobs) as pool:
        per_graph = pool.imap(check, graphs, chunksize=16)
        return assemble_report(conjecture_id, max_n, per_graph, max_violations)
