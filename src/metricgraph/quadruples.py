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
Conjecture 4.2 on finite graphs is the exception: `check_conjecture_42`'s
docstring proves it, and its sweep stays as a computed check of the proof.
"""

from __future__ import annotations

import functools
import itertools
import os
from fractions import Fraction
from typing import Iterable, NamedTuple

from .enumeration import HARD_CAP, Shard, _is_connected, enumerate_connected_graphs, graph_from_mask, split_trees
from .errors import (
    Disconnected,
    EmptyGraph,
    InternalVerificationFailure,
    ParseError,
    TooLarge,
    TooSmall,
    WrongArity,
    excerpt,
)
from .graph import Graph, _bfs_from, graph_doc
from .metric import MetricSpace, Rational, json_text


# ---------------------------------------------------------------------------
# Menger betweenness class
# ---------------------------------------------------------------------------

def mb_check(m: MetricSpace) -> tuple[str, str, str] | None:
    """Membership in the betweenness-forced-additivity class.

    Returns None when every ordered triple (x, y, z) of distinct points
    with d(x,z) >= max(d(x,y), d(y,z)) satisfies d(x,z) = d(x,y) + d(y,z);
    otherwise the lexicographically first violating triple by point index.
    Line metrics are in the class, and from five points on they are all of
    it (Menger, 1928): there `line_embed` decides membership in O(n^2), and
    the O(n^3) triple scan runs only to name a non-member's witness.
    """
    if m.n >= 5 and line_embed(m) is not None:
        return None
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

class PLQ(NamedTuple):
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


class QuadInequality(NamedTuple):
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
# Conjecture kernels, on a connected graph's rows as neighbour bitmasks
# ---------------------------------------------------------------------------

def _distance_rows(n: int, nbr: list[int]) -> list[list[int]]:
    """`_bfs_from` rows of the connected graph whose vertex v has neighbour
    bitmask nbr[v]: the rows of `connected_distances`, a metric by
    construction (Kay and Chartrand, 1964), so the kernels read them
    unvalidated."""
    adjacency = [[j for j in range(n) if x >> j & 1] for x in nbr]
    return [_bfs_from(adjacency, s) for s in range(n)]  # type: ignore[misc]


def _diameter_below_4(n: int, nbr: list[int]) -> bool:
    """Whether every ball of radius 3 is the whole vertex set.  The ball of
    radius 2 around v is v, its neighbours and theirs; the one of radius 3
    is the union of the radius-2 balls around v and its neighbours."""
    full = (1 << n) - 1
    ball2 = []
    for v, x in enumerate(nbr):
        ball = x | 1 << v
        while x:
            low = x & -x
            ball |= nbr[low.bit_length() - 1]
            x ^= low
        ball2.append(ball)
    for v, x in enumerate(nbr):
        ball = ball2[v]
        while x and ball != full:
            low = x & -x
            ball |= ball2[low.bit_length() - 1]
            x ^= low
        if ball != full:
            return False
    return True


def _c42_witnesses(n: int, nbr: list[int]) -> list[tuple[()]]:
    """[()] when the class violates C42, else []: `check_conjecture_42`'s
    lemma decides every class but C_n, n >= 5, from its degrees."""
    degrees = [x.bit_count() for x in nbr]
    if max(degrees) >= 3 or sum(degrees) == 2 * (n - 1) or n <= 4:
        return []
    return [] if _mb_violation(_distance_rows(n, nbr)) is not None else [()]


def _c44_witnesses(n: int, nbr: list[int]) -> list[tuple[int, int, int, int]]:
    """The index 4-sets where C44 fails (see `check_conjecture_44`), in
    `itertools.combinations` order."""
    if _diameter_below_4(n, nbr):
        return []
    d = _distance_rows(n, nbr)
    quads = set()
    for a, c in itertools.combinations(range(n), 2):
        s, odd = divmod(d[a][c], 2)
        if s >= 2 and not odd:
            midpoints = [b for b in range(n) if d[a][b] == s == d[c][b]]
            pairs = itertools.combinations(midpoints, 2)
            quads.update(tuple(sorted((a, b, c, e))) for b, e in pairs if d[b][e] == 2 * s)
    return sorted(quads)


# ---------------------------------------------------------------------------
# Conjecture checkers
# ---------------------------------------------------------------------------

# conjecture id -> (kernel, smallest checkable n, the one direction that can fail)
_CONJECTURES = {"C42": (_c42_witnesses, 3, "mb_implies_shape"), "C44": (_c44_witnesses, 4, "ii_implies_i")}


def _conjecture(conjecture_id: str) -> tuple:
    """The id's `_CONJECTURES` entry; `ParseError` for any other id."""
    if conjecture_id not in _CONJECTURES:
        raise ParseError(f"unknown conjecture id {excerpt(conjecture_id)}; use C42 or C44")
    return _CONJECTURES[conjecture_id]


class ConjectureViolation(NamedTuple):
    conjecture_id: str
    graph: Graph
    witness: tuple[str, ...]
    direction: str


def _violations(conjecture_id: str, g: Graph, witnesses: list[tuple[int, ...]]) -> list[ConjectureViolation]:
    labels = g.vertex_labels
    direction = _CONJECTURES[conjecture_id][2]
    return [ConjectureViolation(conjecture_id, g, tuple(labels[i] for i in w), direction)
            for w in witnesses]


def check_graph(conjecture_id: str, g: Graph) -> list[ConjectureViolation]:
    """Conjecture `conjecture_id`'s violations on g, in its kernel's order.
    Raises `ParseError` for an id other than C42 or C44, then `Disconnected`,
    then `EmptyGraph` (C42, no edge) or `TooSmall` (C44, below 4 vertices)."""
    kernel = _conjecture(conjecture_id)[0]
    nbr = [sum(1 << j for j in row) for row in g.adjacency]
    if not _is_connected(g.n, nbr):
        raise Disconnected("geodesic metric requires a connected graph")
    if conjecture_id == "C42" and g.edge_count() == 0:
        raise EmptyGraph("conjecture applies to graphs with at least one edge")
    if conjecture_id == "C44" and g.n < 4:
        raise TooSmall(f"need at least 4 vertices, got {g.n}")
    return _violations(conjecture_id, g, kernel(g.n, nbr))


def check_conjecture_42(g: Graph) -> ConjectureViolation | None:
    """Compare betweenness-class membership with the path-or-C4 shape test.

    Consistent (None) when the two agree.  The infinite shapes (ray,
    double ray) cannot occur among finite inputs, so the shape side is
    just {path, C4}, and both are in the class: a path's metric is a line
    metric, and in C4 the only qualifying triples have x, z opposite,
    where 2 = 1 + 1.  So only `mb_implies_shape` can occur (empty
    witness).

    Lemma: no finite connected graph other than a path or C4 is in the
    class, so this never reports.  A triangle x, y, z violates it, as
    d(x,z) = 1 >= max(d(x,y), d(y,z)) but 1 != 1 + 1.  A vertex of degree
    >= 3 with no two of its neighbours adjacent gives three neighbours x,
    y, z pairwise at distance 2, and 2 >= max(2, 2) but 2 != 4.  With
    every degree <= 2 the graph is a path (n - 1 edges), C3 (a triangle),
    C4, or C_n with n >= 5, numbered around the cycle: for n = 2m + 1,
    (1, 0, m + 1) has distances 1, m, m; for n = 2m, (0, m + 1, m - 1) has
    distances m - 1, 2, m - 1.  So the kernel counts degrees, and only a
    C_n with n >= 5 reaches the BFS rows and the triple scan, which stay
    as the sweep's computed check of the last case.
    Raises `Disconnected`, then `EmptyGraph`.
    """
    violations = check_graph("C42", g)
    return violations[0] if violations else None


def four_subset_status(metric: MetricSpace, subset: Iterable[str]) -> tuple[bool, bool]:
    """(induced subgraph is a 4-cycle, distances form an equilateral
    pseudo-linear quadruple) for one 4-vertex subset of a graph, given the
    graph's geodesic metric: `plq_classify` on the subset, whose s = 1
    case is the induced 4-cycle (see `check_conjecture_44`'s lemma)."""
    plq = plq_classify(metric.restrict(_require_four(subset)))
    holds_ii = plq is not None and plq.equilateral
    return holds_ii and plq.s == 1, holds_ii


def check_conjecture_44(g: Graph) -> list[ConjectureViolation]:
    """All 4-vertex subsets where induced-4-cycle and equilateral
    pseudo-linear status disagree (empty list = consistent on g), in
    `itertools.combinations` order.  Raises `Disconnected`, then
    `TooSmall`.

    Lemma: a 4-set induces a 4-cycle exactly when its distances are the
    equilateral quadruple with s = 1: sides are edges, diagonals are
    non-edges with a common neighbour.  So only `ii_implies_i` occurs,
    with s >= 2: a diagonal (a, c) at distance 2s and two of its midpoints
    b, e (d(a,b) = d(b,c) = s) at distance 2s.  Each 4-set is found from
    both of its diagonals.  Such a diagonal needs diameter >= 4, so a
    graph whose radius-3 balls are all the whole vertex set skips the BFS
    rows and the scan.
    """
    return check_graph("C44", g)


# ---------------------------------------------------------------------------
# Search harness
# ---------------------------------------------------------------------------

Record = tuple[int, int, tuple[int, ...]]  # a violating class's n and mask, and one index witness


class ConjectureReport(NamedTuple):
    conjecture_id: str
    max_n: int
    graphs_checked: int
    violations: tuple[ConjectureViolation, ...]

    def to_json(self) -> str:
        return json_text({
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
        })


def replay_violation(v: ConjectureViolation) -> bool:
    """Whether `check_graph`, run again on the violation's graph, reports
    this same violation (same witness, in order, and direction); False for
    an unknown conjecture id or a witness label the graph does not have."""
    return v.conjecture_id in _CONJECTURES and v in check_graph(v.conjecture_id, v.graph)


def _check_shard(conjecture_id: str, max_violations: int, shard: Shard) -> tuple[int, list[Record]]:
    """Per-shard work item of `search`: walk the shard's roots, run the
    conjecture's kernel on every class's neighbour bitmasks, and return the
    class count and the first max_violations (n, mask, witness) records."""
    kernel = _CONJECTURES[conjecture_id][0]
    classes = 0
    records: list[Record] = []
    for n, root in shard:
        for mask, nbr in enumerate_connected_graphs(n, root):
            classes += 1
            if witnesses := kernel(n, nbr):
                records += [(n, mask, w) for w in witnesses[: max_violations - len(records)]]
    return classes, records


def assemble_report(
    conjecture_id: str,
    max_n: int,
    per_shard: Iterable[tuple[int, list[Record]]],
    max_violations: int,
) -> ConjectureReport:
    """Sum the shards' class counts, keep the first max_violations of their
    records in (n, mask) order, whatever order the shards came in (a stable
    sort: one class's witnesses keep their order), and build one `Graph`
    per kept class for its violations."""
    shards = list(per_shard)
    records = sorted((r for _, kept in shards for r in kept), key=lambda r: r[:2])
    violations: list[ConjectureViolation] = []
    for (n, mask), group in itertools.groupby(records[:max_violations], key=lambda r: r[:2]):
        violations += _violations(conjecture_id, graph_from_mask(n, mask), [w for _, _, w in group])
    return ConjectureReport(conjecture_id, max_n, sum(classes for classes, _ in shards), tuple(violations))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS
    reports one (a container may be pinned to a few of the host's CPUs),
    else the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forked(check, shards: list[Shard], jobs: int) -> list[tuple[int, list[Record]]]:
    """`check` on every shard, in this process and jobs - 1 forked children,
    each taking the next free 4-byte shard index from one pipe.  A child
    marshals its results back through its own pipe, or empties the queue and
    sends the type and text of the exception that stopped it; one that exits
    non-zero or dies by a signal (so it cannot empty the queue) raises
    `ChildProcessError` with that text or its wait status.  No child outlives it."""
    import contextlib
    import gc
    import marshal
    import signal
    queue, feed = (open(fd, mode, buffering=0) for fd, mode in zip(os.pipe(), ("rb", "wb")))
    def take() -> list[tuple[int, list[Record]]]:
        return [check(shards[int.from_bytes(i, "little")]) for i in iter(lambda: queue.read(4), b"")]
    children = {}  # pid -> the read end of its result pipe
    gc.freeze()  # the children's collector skips frozen objects, so it leaves the forked heap's pages shared
    try:
        for _ in range(jobs - 1):
            pipe, out = os.pipe()
            if not (pid := os.fork()):
                code = 1
                try:
                    feed.close()
                    try:
                        sent = take()
                    except Exception as exc:  # the parent raises with its type and text
                        while queue.read(4):  # a whole index at a time, as every reader takes them
                            pass
                        sent = f"{type(exc).__name__}: {exc}"
                    with open(out, "wb") as sink:
                        marshal.dump(sent, sink)
                    code = 1 if isinstance(sent, str) else 0
                finally:
                    os._exit(code)
            os.close(out)
            children[pid] = open(pipe, "rb")
        feed.writelines(i.to_bytes(4, "little") for i in range(len(shards)))  # one write each, after the forks
        feed.close()
        results = take()
        for pid, pipe in list(children.items()):
            sent = []
            with pipe, contextlib.suppress(EOFError):  # a lost child's pipe ends early; its status says so
                sent = marshal.load(pipe)
            del children[pid]
            if status := os.waitpid(pid, 0)[1]:
                why = sent if isinstance(sent, str) else f"wait status {status}"
                raise ChildProcessError(f"sweep worker {pid} failed: {why}")
            results += sent
        return results
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for file in (queue, feed, *children.values()):
            file.close()
        gc.unfreeze()


def search(
    conjecture_id: str,
    max_n: int,
    max_violations: int = 100,
    jobs: int = 1,
) -> ConjectureReport:
    """Run a conjecture checker across every connected isomorphism class
    up to max_n vertices, smallest vertex count first; `TooSmall` when
    max_n is below the conjecture's smallest checkable n (3 for C42, 4
    for C44), `TooLarge` above `HARD_CAP`.

    Read's trees are split into at least 32 shards per job
    (`split_trees`), and each shard is walked and checked where it runs:
    in-process for jobs = 1 or without `os.fork`, else by `_forked` in this
    process and min(jobs, usable CPUs) - 1 forked children.  The violations
    are merged in (n, mask) order, so the report is the same for every
    `jobs`; a lost child raises `ChildProcessError`.
    """
    min_n = _conjecture(conjecture_id)[1]
    if max_n > HARD_CAP:
        raise TooLarge(f"search needs {min_n} <= max_n <= {HARD_CAP}, got {max_n}")
    if max_n < min_n:
        raise TooSmall(f"{conjecture_id} search needs max_n >= {min_n}, got {max_n}")
    if jobs < 1:
        raise TooSmall(f"search needs jobs >= 1, got {jobs}")
    if max_violations < 1:
        raise TooSmall(f"search needs max_violations >= 1, got {max_violations}")
    jobs = min(jobs, _usable_cpus())
    shards = split_trees(min_n, max_n, 32 * jobs)
    check = functools.partial(_check_shard, conjecture_id, max_violations)
    per_shard = _forked(check, shards, jobs) if jobs > 1 and hasattr(os, "fork") else map(check, shards)
    return assemble_report(conjecture_id, max_n, per_shard, max_violations)
