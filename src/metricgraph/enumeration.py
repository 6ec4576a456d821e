"""Canonical forms and exhaustive enumeration of small connected graphs.

The canonical form of a graph is the minimum, over all vertex permutations,
of its upper-triangle adjacency bit string (pairs ordered (0,1), (0,2),
(1,2), (0,3), ...), packed into bytes behind a vertex-count prefix.  Equal
byte strings characterize isomorphism exactly.

Both `canonical_form` and the orderly generator below run one exact
branch-and-bound over partial vertex placements, `_search`.  The
column-major pair order means a placement prefix of k vertices fixes the
first k(k-1)/2 bits, column by column, so a prefix whose column is above
the bound is pruned without losing exactness.

`enumerate_connected_graphs` uses orderly generation (R. C. Read, "Every one
a winner", Ann. Discrete Math. 2, 1978) over orbit-minimal bitmasks: each
class is reached once, at the one mask that is minimal in its orbit, and
no table of labeled masks or permutations is built.  Each emitted
representative is therefore exactly the graph whose bitmask equals its own
canonical form.  The walker yields tree nodes (mask, nbr), the mask and
the rows as neighbour bitmasks; `graph_from_mask(n, mask)` builds the
`Graph` of a node when one is wanted.  The tree is walked in mask order
and no level is held.

A sweep over several n runs as shards (`split_trees`): subtrees of the
trees, cut where one heap over all n says the pending subtree is widest.
A node whose lowest zero bit is L has its subtree in a window of 2^L
masks, so that node is expanded next.  The expanded nodes are single
classes, kept with their neighbour bitmasks and walked as one more shard,
and any shard is walked on its own by `enumerate_connected_graphs(n, root)`.
"""

from __future__ import annotations

import heapq
from typing import Iterator

from .errors import TooLarge
from .graph import Graph

HARD_CAP = 9  # n = 9 takes a minute or two; n = 10 has 11 716 571 classes


def _pair_positions(n: int) -> list[tuple[int, int]]:
    """Vertex pairs in column-major triangle order."""
    return [(i, j) for j in range(n) for i in range(j)]


def graph_from_mask(n: int, mask: int) -> Graph:
    """The graph on v0..v{n-1} with adjacency bitmask `mask`, its sorted
    rows read column by column; the `Graph` constructor checks them."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for k, col in enumerate(_columns(n, mask)):
        for i in range(k):
            if col >> (k - 1 - i) & 1:
                rows[i].append(k)
                rows[k].append(i)
    return Graph(tuple(f"v{k}" for k in range(n)), tuple(map(tuple, rows)))


def _encode(n: int, mask: int) -> bytes:
    """Vertex-count prefix + the C(n,2)-bit mask packed MSB-first."""
    nbits = n * (n - 1) // 2
    nbytes = -(-nbits // 8)
    return bytes([n]) + (mask << (8 * nbytes - nbits)).to_bytes(nbytes, "big")


# ---------------------------------------------------------------------------
# Canonical form (exact branch-and-bound minimization)
# ---------------------------------------------------------------------------

def _columns(n: int, mask: int) -> list[int]:
    """Column k of the mask: the k bits of pairs (0,k), ..., (k-1,k)."""
    nbits = n * (n - 1) // 2
    return [(mask >> (nbits - k * (k + 1) // 2)) & ((1 << k) - 1) for k in range(n)]


def _search(n: int, nbr: list[int], best: list[int], stop: bool) -> bool:
    """Column-prefix branch-and-bound for the least column string.

    `best` holds one column per position, the string of some vertex order.
    Placing the k-th vertex fixes column k of every remaining vertex, its
    adjacency to the k vertices already placed; only a vertex whose column
    equals `best[k]` is placed, since a larger one leads to no smaller
    string.  A column below the bound proves a smaller string.  With `stop`
    the search then returns True at once, leaving `best` as it was.
    Otherwise that column of `best` drops to it, the later ones are reset,
    and the search goes on, leaving in `best` the least string over all
    vertex orders and returning False.

    The remaining vertices are cells (column, bitmask) in column order, so
    the first cell holds the candidates; placing v splits each cell into
    its non-neighbours, then its neighbours, built only on a tie.  Twins,
    N(u) - {u'} = N(u') - {u}, swap by an automorphism that fixes every
    other vertex, so a candidate whose next twin below is in its cell is
    skipped: each class is placed lowest first, one subtree per level.
    """
    top = n - 1
    unset = [1 << n] * n  # above every column
    twins = []  # the next twin below each vertex, as a bit, or 0
    last: dict[int, int] = {}  # open twins share a row, closed ones a row with their own bit
    for v, a in enumerate(nbr):
        u = last.get(a, last.get(a | 1 << v, v))
        twins.append(1 << u if u < v else 0)
        last[a] = last[a | 1 << v] = v

    def extend(k: int, cells: list[tuple[int, int]]) -> bool:
        c0, m0 = cells[0]
        t1 = best[k + 1]
        todo = m0
        while todo:
            bit = todo & -todo
            todo ^= bit
            v = bit.bit_length() - 1
            if m0 & twins[v]:
                continue
            nv = nbr[v]
            rest = m0 ^ bit
            low = (c0 << 1 | (not rest & ~nv)) if rest else (cells[1][0] << 1 | (not cells[1][1] & ~nv))
            if low > t1:
                continue
            if low < t1:
                if stop:
                    return True
                best[k + 1] = t1 = low
                best[k + 2 :] = unset[k + 2 :]
            if k + 1 < top:
                off = ~(nv | bit)
                nxt = []
                for c, m in cells:
                    c <<= 1
                    if m & off:
                        nxt.append((c, m & off))
                    if m & nv:
                        nxt.append((c | 1, m & nv))
                if extend(k + 1, nxt):
                    return True
        return False

    return n > 1 and extend(0, [(0, (1 << n) - 1)])


def canonical_form(g: Graph) -> bytes:
    """Minimum adjacency bit string over all vertex permutations, as bytes.

    Exact: starts from the graph's own labeling and prunes only placement
    prefixes already lexicographically worse than the best string found.
    Equal byte strings <=> isomorphic.
    """
    n = g.n
    if n > HARD_CAP:
        raise TooLarge(f"canonical form capped at {HARD_CAP} vertices, got {n}")
    nbr = [sum(1 << j for j in g.adjacency[i]) for i in range(n)]
    # the graph's own string: column k is vertex k's adjacency to 0..k-1, vertex 0 first
    best = [sum((nbr[k] >> i & 1) << (k - 1 - i) for i in range(k)) for k in range(n)]
    _search(n, nbr, best, stop=False)
    mask = 0
    for k, col in enumerate(best):
        mask = mask << k | col
    return _encode(n, mask)


# ---------------------------------------------------------------------------
# Enumeration (orderly generation)
# ---------------------------------------------------------------------------

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


def _lowest_zero(mask: int) -> int:
    return (~mask & (mask + 1)).bit_length() - 1


def _root(n: int) -> tuple[int, list[int]]:
    """K_n as a tree node: its mask and its rows as neighbour bitmasks."""
    full = (1 << n) - 1
    return (1 << n * (n - 1) // 2) - 1, [full ^ (1 << v) for v in range(n)]


def _children(n: int, pairs: list[tuple[int, int]], mask: int, nbr: list[int]) -> Iterator[tuple[int, list[int]]]:
    """The kept children of the node (mask, nbr), largest first.  Clearing
    the pair (i, j) lowers column j alone, so a child whose column j - 1
    exceeds column j without its last bit loses to the swap of j - 1 and j,
    and is dropped without a search."""
    nbits = len(pairs)
    cols = _columns(n, mask)
    for sig in range(_lowest_zero(mask)):
        i, j = pairs[nbits - 1 - sig]
        best = list(cols)
        best[j] ^= 1 << (j - 1 - i)
        if cols[j - 1] > best[j] >> 1:
            continue
        child_nbr = list(nbr)
        child_nbr[i] ^= 1 << j
        child_nbr[j] ^= 1 << i
        # the node is connected, so a common neighbour keeps the child so
        if (child_nbr[i] & child_nbr[j] or _is_connected(n, child_nbr)) and not _search(n, child_nbr, best, stop=True):
            yield mask ^ (1 << sig), child_nbr


def enumerate_connected_graphs(n: int, root: tuple[int, list[int], bool] | None = None) -> Iterator[tuple[int, list[int]]]:
    """One node (mask, nbr) per isomorphism class of connected graphs on n
    vertices, in increasing mask order: the class's bitmask, which is its
    canonical form, and its rows as neighbour bitmasks (`graph_from_mask`
    gives its `Graph`).

    Setting the lowest-significance zero bit of an orbit-minimal mask gives
    another one, so these masks form a tree rooted at K_n.  A node's
    children clear one bit below its lowest zero bit and are kept when
    `_search` finds no smaller column string; a disconnected child is
    dropped with its whole subtree, as removing edges never reconnects.

    The walk is post-order, smallest child first, which is increasing mask
    order: the child C_a of a node P clears bit a, below P's lowest zero
    bit; C_a's subtree only clears bits below a, so it lies in
    (C_a - 2^a, C_a], below the subtree of every C_b with b < a and below P.

    `root`, a node (mask, nbr, subtree) from `split_trees`, walks only its
    subtree; with subtree False, only that one class is yielded.
    """
    if n < 1 or n > HARD_CAP:
        raise TooLarge(f"enumeration supports 1 <= n <= {HARD_CAP}, got {n}")
    pairs = _pair_positions(n)
    stack = [(*_root(n), True) if root is None else root]
    while stack:
        mask, nbr, subtree = stack.pop()
        if not subtree:
            yield mask, nbr
            continue
        stack.append((mask, nbr, False))
        # the smallest child is popped first
        stack.extend((child, child_nbr, True) for child, child_nbr in _children(n, pairs, mask, nbr))


Shard = list[tuple[int, tuple[int, list[int], bool]]]


def split_trees(min_n: int, max_n: int, count: int) -> list[Shard]:
    """The trees for n = min_n..max_n cut into at least `count` subtrees
    (fewer only once every node is expanded), as shards of (n, root), each
    root a node (mask, nbr, subtree) for `enumerate_connected_graphs`.

    One heap over all n holds the pending subtree roots.  The node popped
    and expanded is the one whose lowest zero bit L is highest, since its
    subtree lies in a window of 2^L masks, the widest.  The subtrees come
    one per shard, widest first; the expanded nodes follow as one shard of
    single classes (subtree False) in (n, mask) order.
    """
    heap = []
    for n in range(min_n, max_n + 1):
        mask, nbr = _root(n)
        heapq.heappush(heap, (-_lowest_zero(mask), n, mask, nbr))
    singles: Shard = []
    while heap and len(heap) < count:
        _, n, mask, nbr = heapq.heappop(heap)
        singles.append((n, (mask, nbr, False)))
        for child, child_nbr in _children(n, _pair_positions(n), mask, nbr):
            heapq.heappush(heap, (-_lowest_zero(child), n, child, child_nbr))
    shards = [[(n, (mask, nbr, True))] for _, n, mask, nbr in sorted(heap)]
    return shards + [sorted(singles)] if singles else shards
