"""Independent brute-force oracles used to derive and check expected values.

Everything here deliberately avoids the library's own algorithms: distances
come from exhaustive simple-path enumeration, isomorphism classes from
orbits under explicit permutation action on edge sets, and line embeddings
from trying every sign assignment.  Keep it dumb.  The class helpers at the
end are no oracle: they hand the tests the generator's classes, walked
once per test session.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction
from typing import Iterator

from metricgraph import (
    Graph, MetricSpace, MetricViolation, ParseError, TooSmall, classify_shape,
    enumerate_connected_graphs, graph_from_mask,
)
from metricgraph.errors import excerpt
from metricgraph.graph import connected_distances
from metricgraph.metric import Rational
from metricgraph.quadruples import ConjectureViolation, _mb_violation


def rational_by_fraction(token: str) -> Rational:
    """An exponent-free string token through `Fraction` alone, as
    `parse_rational` reads it: an int when integral, else a Fraction."""
    try:
        q = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"not a rational number: {excerpt(token)}") from exc
    return q.numerator if q.denominator == 1 else q


def brute_shortest_length(g: Graph, u: int, v: int) -> int | None:
    """Minimum edge count over all simple paths from u to v, by exhaustive
    depth-first path enumeration."""
    if u == v:
        return 0
    best: list[int | None] = [None]

    def walk(at: int, visited: set[int], length: int) -> None:
        if best[0] is not None and length >= best[0]:
            return
        for w in g.adjacency[at]:
            if w == v:
                if best[0] is None or length + 1 < best[0]:
                    best[0] = length + 1
            elif w not in visited:
                visited.add(w)
                walk(w, visited, length + 1)
                visited.remove(w)

    walk(u, {u}, 0)
    return best[0]


def brute_distance_matrix(g: Graph) -> list[list[int | None]]:
    n = g.n
    return [[brute_shortest_length(g, i, j) for j in range(n)] for i in range(n)]


def edge_set(g: Graph) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(e) for e in g.edges())


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Try every vertex bijection."""
    if g1.n != g2.n or g1.edge_count() != g2.edge_count():
        return False
    e1 = edge_set(g1)
    e2 = edge_set(g2)
    for perm in itertools.permutations(range(g1.n)):
        if frozenset(frozenset(perm[a] for a in e) for e in e1) == e2:
            return True
    return False


def connected_edge_sets(n: int) -> list[frozenset[frozenset[int]]]:
    """All labeled connected graphs on n vertices, as edge sets."""
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for picks in itertools.product([0, 1], repeat=len(pairs)):
        edges = {frozenset(p) for p, take in zip(pairs, picks) if take}
        # DFS connectivity over the raw edge set
        seen = {0}
        stack = [0]
        while stack:
            at = stack.pop()
            for e in edges:
                if at in e:
                    other = next(iter(e - {at}))
                    if other not in seen:
                        seen.add(other)
                        stack.append(other)
        if len(seen) == n:
            out.append(frozenset(edges))
    return out


def brute_connected_class_count(n: int) -> int:
    """Isomorphism classes of connected graphs on n vertices, by grouping
    labeled edge sets into permutation orbits."""
    if n == 1:
        return 1
    remaining = set(connected_edge_sets(n))
    classes = 0
    while remaining:
        rep = next(iter(remaining))
        classes += 1
        for perm in itertools.permutations(range(n)):
            img = frozenset(frozenset({perm[a] for a in e}) for e in rep)
            remaining.discard(img)
    return classes


def _partitions(n: int, largest: int) -> Iterator[tuple[int, ...]]:
    """The partitions of n into parts of at most `largest`, largest part first."""
    if n == 0:
        yield ()
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


def _poly_add(p: list, q: list, scale: Fraction = Fraction(1)) -> list:
    """p + scale * q, coefficient lists indexed by degree."""
    out = p + [0] * (len(q) - len(p))
    for k, c in enumerate(q):
        out[k] += scale * c
    return out


def _poly_mul(p: list, q: list) -> list:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def polya_connected_counts(max_n: int) -> list[list[int]]:
    """counts[n][m]: connected graphs on n unlabeled vertices with m edges,
    n <= max_n, counted by Polya's theorem without building a graph.

    A vertex cycle of length a moves the pairs inside it in (a - 1) // 2
    cycles of length a, plus one of length a / 2 when a is even; two vertex
    cycles of lengths a and b move the pairs across them in gcd(a, b)
    cycles of length lcm(a, b).  A graph fixed by the permutation holds
    each pair cycle whole or not at all, so by Burnside the graphs on n
    vertices count as g_n(x) = sum over cycle types of prod(1 + x^len) / z.
    Every graph is a multiset of connected ones (the Euler transform), so
    log(sum_n g_n y^n) = sum_k C(x^k, y^k) / k, inverted here for the
    connected C_n(x) in exact arithmetic."""
    g: list[list] = [[Fraction(1)]]
    for n in range(1, max_n + 1):
        g_n: list = [0]
        for parts in _partitions(n, n):
            lengths = [a for a in parts for _ in range((a - 1) // 2)] + [a // 2 for a in parts if a % 2 == 0]
            lengths += [math.lcm(a, b) for i, a in enumerate(parts) for b in parts[i + 1:]
                        for _ in range(math.gcd(a, b))]
            fixed = functools.reduce(_poly_mul, ([1] + [0] * (k - 1) + [1] for k in lengths), [1])
            z = math.prod(a ** k * math.factorial(k) for a, k in Counter(parts).items())
            g_n = _poly_add(g_n, fixed, Fraction(1, z))
        g.append(g_n)
    log: list[list] = [[]]  # n * g_n = sum over k <= n of k * log_k * g_(n-k)
    for n in range(1, max_n + 1):
        log_n = g[n]
        for k in range(1, n):
            log_n = _poly_add(log_n, _poly_mul(log[k], g[n - k]), Fraction(-k, n))
        log.append(log_n)
    connected: list[list] = [[]]
    for n in range(1, max_n + 1):
        c_n = log[n]
        for k in range(2, n + 1):
            if n % k == 0:  # the term C_(n/k)(x^k) / k
                spread = [0] * ((len(connected[n // k]) - 1) * k + 1)
                spread[::k] = connected[n // k]
                c_n = _poly_add(c_n, spread, Fraction(-1, k))
        connected.append(c_n)
    assert all(c.denominator == 1 for c_n in connected for c in c_n)
    return [[int(c) for c in c_n] for c_n in connected]


def brute_min_encoding(g: Graph) -> bytes:
    """Canonical form oracle: literal minimum over all vertex permutations
    of the column-major upper-triangle bit string."""
    n = g.n
    pairs = [(i, j) for j in range(n) for i in range(j)]
    best: list[int] | None = None
    for perm in itertools.permutations(range(n)):
        bits = [1 if g.has_edge(perm[i], perm[j]) else 0 for (i, j) in pairs]
        if best is None or bits < best:
            best = bits
    assert best is not None or n == 1
    out = bytearray([n])
    flat = best or []
    for t in range(0, len(flat), 8):
        byte = 0
        for u, b in enumerate(flat[t : t + 8]):
            byte |= b << (7 - u)
        out.append(byte)
    return bytes(out)


# The orderly generator's minimality test from before its search was shared
# with `canonical_form`, kept verbatim: it slices and re-zips the remaining
# vertices at every node, a different route to the same answer.
def is_orbit_minimal(n: int, mask: int, nbr: list[int]) -> bool:
    """Whether no vertex permutation maps the mask to a smaller one.

    The column-prefix branch-and-bound of `canonical_form`, run against the
    mask itself: placing the k-th vertex fixes column k, its adjacency to
    the k vertices already placed.  A column below the mask's own column k
    proves a smaller image, so the test fails at once; a larger column can
    lead to no smaller image and is pruned; only equal prefixes go deeper.
    """
    nbits = n * (n - 1) // 2
    own = [(mask >> (nbits - k * (k + 1) // 2)) & ((1 << k) - 1) for k in range(n)]

    def extend(k: int, verts: list[int], cols: list[int]) -> bool:
        t = own[k]
        if min(cols) < t:
            return False
        if k + 1 == n:
            return True
        for idx, v in enumerate(verts):
            if cols[idx] != t:
                continue
            rest = verts[:idx] + verts[idx + 1 :]
            rest_cols = cols[:idx] + cols[idx + 1 :]
            nv = nbr[v]
            if not extend(k + 1, rest, [(c << 1) | (nv >> u & 1) for u, c in zip(rest, rest_cols)]):
                return False
        return True

    return extend(0, list(range(n)), [0] * n)


def line_embed_by_signs(m: MetricSpace) -> dict[str, Fraction] | None:
    """Line-embedding oracle: fix the first point at 0 and try every sign
    pattern for the remaining points' distances from it."""
    n = m.n
    if n == 1:
        return {m.labels[0]: Fraction(0)}
    for signs in itertools.product((1, -1), repeat=n - 1):
        coords = [Fraction(0)] + [s * m.dist[0][k] for k, s in zip(range(1, n), signs)]
        if all(
            abs(coords[i] - coords[j]) == m.dist[i][j]
            for i in range(n)
            for j in range(i + 1, n)
        ):
            return {lab: coords[i] for i, lab in enumerate(m.labels)}
    return None


def is_integer_metric(m: MetricSpace) -> bool:
    """Integrality oracle: every distance, walked one by one, is an integer."""
    return all(v.denominator == 1 for row in m.dist for v in row)


def has_between_point(m: MetricSpace, i: int, j: int) -> bool:
    """Betweenness oracle by direct scan of the definition."""
    return any(
        k != i and k != j and m.dist[i][j] == m.dist[i][k] + m.dist[k][j]
        for k in range(m.n)
    )


def distance_one_rows(dist) -> list[list[int | None]]:
    """Shortest walk lengths in a table's own distance-1 graph G1, with an
    arc i -> j wherever dist[i][j] == 1, found level by level (None where
    unreached).  G1 is directed when the table is not symmetric."""
    n = len(dist)
    rows = []
    for s in range(n):
        row: list[int | None] = [None] * n
        row[s], frontier, level = 0, [s], 0
        while frontier:
            level += 1
            frontier = [t for t in range(n) if row[t] is None and any(dist[u][t] == 1 for u in frontier)]
            for t in frontier:
                row[t] = level
        rows.append(row)
    return rows


def equals_distance_one_bfs(dist) -> bool:
    """Kay-Chartrand oracle: whether a table equals `distance_one_rows` of
    itself.  On a symmetric table with a zero diagonal and positive integer
    entries off it, this holds iff the table is a graph metric."""
    return distance_one_rows(dist) == [list(row) for row in dist]


def first_mb_violation(m: MetricSpace) -> tuple[str, str, str] | None:
    """Betweenness-class oracle: the first ordered triple of distinct points
    (lexicographic by index) with d(x,z) >= max(d(x,y), d(y,z)) but
    d(x,z) != d(x,y) + d(y,z)."""
    d = m.dist
    for a, b, c in itertools.permutations(range(m.n), 3):
        if d[a][c] >= max(d[a][b], d[b][c]) and d[a][c] != d[a][b] + d[b][c]:
            return (m.labels[a], m.labels[b], m.labels[c])
    return None


def plq_pattern_orderings(m: MetricSpace) -> list[tuple[str, str, str, str]]:
    """All of the 24 orderings of a 4-point space satisfying the
    pseudo-linear pattern literally."""
    assert m.n == 4
    out = []
    for perm in itertools.permutations(range(4)):
        a, b, c, e = perm
        d = m.dist
        s, t = d[a][b], d[b][c]
        if (
            d[c][e] == s
            and d[e][a] == t
            and d[a][c] == s + t
            and d[b][e] == s + t
            and s > 0
            and t > 0
        ):
            out.append(tuple(m.labels[i] for i in perm))
    return out


def brute_first_violation(dist) -> MetricViolation | None:
    """First metric-axiom violation by the plain scan: shape, diagonal,
    symmetry and positivity per pair i < j, then every triple (i, j, k) in
    lexicographic order, comparing the original values directly."""
    n = len(dist)
    for i, row in enumerate(dist):
        if len(row) != n:
            return MetricViolation(
                "shape", (i,), f"row {i} has {len(row)} entries, expected {n}"
            )
    for i in range(n):
        if dist[i][i] != 0:
            return MetricViolation(
                "diagonal", (i, i), f"d[{i}][{i}] = {dist[i][i]} != 0"
            )
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i][j] != dist[j][i]:
                return MetricViolation(
                    "asymmetry", (i, j),
                    f"d[{i}][{j}] = {dist[i][j]} but d[{j}][{i}] = {dist[j][i]}",
                )
            if dist[i][j] <= 0:
                return MetricViolation(
                    "nonpositive", (i, j),
                    f"d[{i}][{j}] = {dist[i][j]} must be positive for distinct points",
                )
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if k == i or k == j:
                    continue
                if dist[i][j] > dist[i][k] + dist[k][j]:
                    return MetricViolation(
                        "triangle", (i, j, k),
                        f"d[{i}][{j}] = {dist[i][j]} > "
                        f"{dist[i][k]} + {dist[k][j]} = d[{i}][{k}] + d[{k}][{j}]",
                    )
    return None


def violation_reproduces(
    dist: tuple[tuple[Rational, ...], ...], violation: MetricViolation
) -> bool:
    """Re-evaluate a reported witness against the table it came from."""
    w = violation.witness
    if violation.kind == "shape":
        return len(dist[w[0]]) != len(dist)
    if violation.kind == "diagonal":
        return dist[w[0]][w[0]] != 0
    if violation.kind == "asymmetry":
        return dist[w[0]][w[1]] != dist[w[1]][w[0]]
    if violation.kind == "nonpositive":
        return dist[w[0]][w[1]] <= 0
    if violation.kind == "triangle":
        i, j, k = w
        return dist[i][j] > dist[i][k] + dist[k][j]
    return False


# The two conjecture checkers as they were before each kept only the
# direction that can fail: both directions of each conjecture tested, the
# C44 one on every 4-subset, on the rows of `connected_distances`.  Kept
# verbatim but for the names and the C42 shape test, which reads
# `classify_shape` here.

def check_conjecture_42_two_sided(g: Graph) -> ConjectureViolation | None:
    d = connected_distances(g)
    if g.edge_count() == 0:
        raise TooSmall("conjecture applies to graphs with at least one edge")
    mb_witness = _mb_violation(d)
    shape = classify_shape(g)
    shape_ok = shape.is_path or (shape.is_cycle and shape.size == 4)
    if mb_witness is None and not shape_ok:
        return ConjectureViolation("C42", g, (), "mb_implies_shape")
    if mb_witness is not None and shape_ok:
        witness = tuple(g.vertex_labels[i] for i in mb_witness)
        return ConjectureViolation("C42", g, witness, "shape_implies_mb")
    return None


def c44_status(
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


def check_conjecture_44_by_subsets(g: Graph) -> list[ConjectureViolation]:
    d = connected_distances(g)
    if g.n < 4:
        raise TooSmall(f"need at least 4 vertices, got {g.n}")
    labels = g.vertex_labels
    out = []
    for quad in itertools.combinations(range(g.n), 4):
        holds_i, holds_ii = c44_status(d, quad)
        if holds_i != holds_ii:
            direction = "i_implies_ii" if holds_i else "ii_implies_i"
            subset = tuple(labels[i] for i in quad)
            out.append(ConjectureViolation("C44", g, subset, direction))
    return out


# ---------------------------------------------------------------------------
# The generator's classes, shared by the tests
# ---------------------------------------------------------------------------

@functools.cache
def class_nodes(n: int) -> tuple[tuple[int, list[int]], ...]:
    """The walker's nodes (mask, nbr) for n, walked once per test session."""
    return tuple(enumerate_connected_graphs(n))


def class_graphs(n: int) -> list[Graph]:
    """One `Graph` per connected class on n vertices, in mask order."""
    return [graph_from_mask(n, mask) for mask, _ in class_nodes(n)]
