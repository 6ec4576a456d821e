"""Canonical forms and exhaustive enumeration of small connected graphs.

The canonical form of a graph is the minimum, over all vertex permutations,
of its upper-triangle adjacency bit string (pairs ordered (0,1), (0,2),
(1,2), (0,3), ...), packed into bytes behind a vertex-count prefix.  Equal
byte strings characterize isomorphism exactly.

`canonical_form` computes that minimum by branch-and-bound over partial
vertex placements; the column-major pair order means a placement prefix of
k vertices fixes the first k(k-1)/2 bits, so worse-than-best prefixes are
pruned without losing exactness.

`enumerate_connected_graphs` uses orderly generation (R. C. Read, "Every one
a winner", Ann. Discrete Math. 2, 1978) over orbit-minimal bitmasks: each
class is reached once, at the one mask that is minimal in its orbit, and
no table of labeled masks or permutations is built.  Each emitted
representative is therefore exactly the graph whose bitmask equals its own
canonical form.  Memory stays in the tens of megabytes; n = 8 (11 117
classes) takes seconds and n = 9 (261 080 classes) a few minutes.
"""

from __future__ import annotations

from typing import Iterator

from .errors import TooLarge
from .graph import Graph

HARD_CAP = 9  # n = 9 takes minutes; n = 10 has 11 716 571 classes


def _pair_positions(n: int) -> list[tuple[int, int]]:
    """Vertex pairs in column-major triangle order."""
    return [(i, j) for j in range(n) for i in range(j)]


def pack_bits(n: int, bits: list[int]) -> bytes:
    """Vertex count prefix + bit string packed MSB-first."""
    out = bytearray([n])
    for t in range(0, len(bits), 8):
        byte = 0
        for u, b in enumerate(bits[t : t + 8]):
            byte |= b << (7 - u)
        out.append(byte)
    return bytes(out)


def mask_to_canonical_bytes(n: int, mask: int) -> bytes:
    """Byte encoding of a bitmask known to be minimal in its orbit."""
    nbits = n * (n - 1) // 2
    bits = [(mask >> (nbits - 1 - c)) & 1 for c in range(nbits)]
    return pack_bits(n, bits)


def graph_from_mask(n: int, mask: int) -> Graph:
    nbits = n * (n - 1) // 2
    edges = [
        (i, j)
        for c, (i, j) in enumerate(_pair_positions(n))
        if (mask >> (nbits - 1 - c)) & 1
    ]
    return Graph.from_edges([f"v{k}" for k in range(n)], edges)


def mask_from_graph(g: Graph) -> int:
    nbits = g.n * (g.n - 1) // 2
    mask = 0
    for c, (i, j) in enumerate(_pair_positions(g.n)):
        if g.has_edge(i, j):
            mask |= 1 << (nbits - 1 - c)
    return mask


# ---------------------------------------------------------------------------
# Canonical form (exact branch-and-bound minimization)
# ---------------------------------------------------------------------------

def canonical_form(g: Graph, max_vertices: int = 8) -> bytes:
    """Minimum adjacency bit string over all vertex permutations, as bytes.

    Exact: prunes only placement prefixes already lexicographically worse
    than the best completed string.  Equal byte strings <=> isomorphic.
    """
    n = g.n
    if n > max_vertices:
        raise TooLarge(f"canonical form capped at {max_vertices} vertices, got {n}")
    if n == 1:
        return pack_bits(1, [])

    nbr_mask = [0] * n
    for i in range(n):
        for j in g.adjacency[i]:
            nbr_mask[i] |= 1 << j

    best: list[int] | None = None

    def extend(perm: list[int], used: int, bits: list[int]) -> None:
        nonlocal best
        k = len(perm)
        if k == n:
            if best is None or bits < best:
                best = list(bits)
            return
        cands = []
        for v in range(n):
            if (used >> v) & 1:
                continue
            col = [(nbr_mask[p] >> v) & 1 for p in perm]
            cands.append((col, v))
        cands.sort()
        for col, v in cands:
            new_bits = bits + col
            if best is not None and new_bits > best[: len(new_bits)]:
                break  # candidates are sorted; all later ones are worse
            extend(perm + [v], used | (1 << v), new_bits)

    extend([], 0, [])
    assert best is not None
    return pack_bits(n, best)


# ---------------------------------------------------------------------------
# Enumeration (orderly generation)
# ---------------------------------------------------------------------------

def _is_orbit_minimal(n: int, mask: int, nbr: list[int]) -> bool:
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


def _is_connected(n: int, nbr: list[int]) -> bool:
    reach = frontier = 1
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= nbr[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~reach
        reach |= step
    return reach == (1 << n) - 1


def _connected_minimal_masks(n: int) -> list[int]:
    """Every orbit-minimal mask of a connected graph on n vertices, sorted.

    Setting the lowest-significance zero bit of an orbit-minimal mask gives
    another one, so these masks form a tree rooted at K_n.  A node's
    children are the node with one bit below its lowest zero bit cleared,
    kept when orbit-minimal.  Removing an edge never reconnects a graph, so
    a disconnected child is dropped with its whole subtree.
    """
    nbits = n * (n - 1) // 2
    pairs = _pair_positions(n)
    full = (1 << n) - 1
    found = []
    stack = [((1 << nbits) - 1, [full ^ (1 << v) for v in range(n)])]
    while stack:
        mask, nbr = stack.pop()
        found.append(mask)
        lowest_zero = (~mask & (mask + 1)).bit_length() - 1
        for sig in range(lowest_zero):
            i, j = pairs[nbits - 1 - sig]
            child_nbr = list(nbr)
            child_nbr[i] ^= 1 << j
            child_nbr[j] ^= 1 << i
            child = mask ^ (1 << sig)
            if _is_connected(n, child_nbr) and _is_orbit_minimal(n, child, child_nbr):
                stack.append((child, child_nbr))
    found.sort()
    return found


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs on n
    vertices, in increasing bitmask order.

    Each yielded graph's bitmask is the minimum of its permutation orbit,
    so it coincides with the graph's canonical form.  The whole level is
    generated before the first graph is yielded.
    """
    if n < 1 or n > HARD_CAP:
        raise TooLarge(f"enumeration supports 1 <= n <= {HARD_CAP}, got {n}")
    for mask in _connected_minimal_masks(n):
        yield graph_from_mask(n, mask)


def count_connected_graphs(n: int) -> int:
    return sum(1 for _ in enumerate_connected_graphs(n))
