"""Canonical forms and exhaustive enumeration of small connected graphs.

The canonical form of a graph is the minimum, over all vertex permutations,
of its upper-triangle adjacency bit string (pairs ordered (0,1), (0,2),
(1,2), (0,3), ...), packed into bytes behind a vertex-count prefix.  Equal
byte strings characterize isomorphism exactly.

`canonical_form` computes that minimum by branch-and-bound over partial
vertex placements; the column-major pair order means a placement prefix of
k vertices fixes the first k(k-1)/2 bits, so worse-than-best prefixes are
pruned without losing exactness.

`enumerate_connected_graphs` walks every labeled adjacency bitmask in
increasing order, skips masks already known to be isomorphic to an earlier
one, and emits each new connected representative.  Marking is done by
expanding the full permutation orbit of each representative (vectorized
with numpy byte-lookup tables), so the cost of dedup scales with the number
of isomorphism classes, not with the number of labeled graphs.  Because
masks are visited in increasing order, each emitted representative is the
minimum of its orbit, i.e. exactly the graph whose bitmask equals its own
canonical form.

Only this sieve uses numpy, so numpy is imported inside it rather than at
module level: a process that never enumerates never loads it.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterator

from .errors import TooLarge
from .graph import Graph

if TYPE_CHECKING:
    import numpy as np

HARD_CAP = 8  # beyond this the labeled-bitmask space is not worth attempting

_tables_cache: dict[int, "_PermTables"] = {}


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
# Permutation byte tables (orbit expansion)
# ---------------------------------------------------------------------------

class _PermTables:
    """Per-n lookup tables mapping each byte of a bitmask, under every
    vertex permutation, to its contribution to the permuted bitmask."""

    def __init__(self, n: int):
        import numpy as np

        self.n = n
        nbits = n * (n - 1) // 2
        self.nbits = nbits
        self.nbytes = max(1, (nbits + 7) // 8)
        pairs = _pair_positions(n)
        pos_of = {pair: c for c, pair in enumerate(pairs)}
        perms = list(itertools.permutations(range(n)))
        nperm = len(perms)

        # single[p, k, b] = permuted-mask bit contributed by source bit b of
        # source byte k (byte k holds significances 8k..8k+7) under perm p
        single = np.zeros((nperm, self.nbytes, 8), dtype=np.uint32)
        for pi, perm in enumerate(perms):
            for c, (i, j) in enumerate(pairs):
                a, b = perm[i], perm[j]
                tgt_sig = nbits - 1 - pos_of[(min(a, b), max(a, b))]
                src_sig = nbits - 1 - c
                single[pi, src_sig >> 3, src_sig & 7] = np.uint32(1) << tgt_sig

        vals = np.arange(256, dtype=np.uint32)
        bit_of = ((vals[:, None] >> np.arange(8)[None, :]) & 1).astype(np.uint32)
        # distinct target bits per (perm, byte), so sum == bitwise OR
        self.tables = np.einsum("vb,pkb->pkv", bit_of, single, dtype=np.uint64).astype(
            np.uint32
        )

    def orbit(self, mask: int) -> np.ndarray:
        """Permuted images of one mask under every vertex permutation."""
        imgs = self.tables[:, 0, mask & 255].copy()
        for k in range(1, self.nbytes):
            imgs |= self.tables[:, k, (mask >> (8 * k)) & 255]
        return imgs


def _tables_for(n: int) -> _PermTables:
    if n not in _tables_cache:
        _tables_cache[n] = _PermTables(n)
    return _tables_cache[n]


# ---------------------------------------------------------------------------
# Connectivity over mask chunks (vectorized)
# ---------------------------------------------------------------------------

def _connected_flags(masks: np.ndarray, n: int) -> np.ndarray:
    """Boolean flags: which masks encode connected graphs on n vertices."""
    import numpy as np

    nbits = n * (n - 1) // 2
    rows = [np.zeros(len(masks), dtype=np.uint16) for _ in range(n)]
    for c, (i, j) in enumerate(_pair_positions(n)):
        bit = ((masks >> np.uint32(nbits - 1 - c)) & np.uint32(1)).astype(np.uint16)
        rows[i] |= bit << np.uint16(j)
        rows[j] |= bit << np.uint16(i)
    reach = np.ones(len(masks), dtype=np.uint16)
    for _ in range(n - 1):
        for i in range(n):
            sel = (reach >> np.uint16(i)) & np.uint16(1)
            reach |= rows[i] * sel
    return reach == np.uint16((1 << n) - 1)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """One representative per isomorphism class of connected graphs on n
    vertices, in increasing bitmask order.

    Each yielded graph's bitmask is the minimum of its permutation orbit,
    so it coincides with the graph's canonical form.
    """
    if n < 1 or n > HARD_CAP:
        raise TooLarge(f"enumeration supports 1 <= n <= {HARD_CAP}, got {n}")
    if n == 1:
        yield Graph(("v0",), ((),))
        return

    import numpy as np

    tables = _tables_for(n)
    nbits = tables.nbits
    total = 1 << nbits
    seen = np.zeros(total, dtype=bool)
    chunk = min(total, 1 << 18)

    for lo in range(0, total, chunk):
        hi = min(lo + chunk, total)
        sub = np.arange(lo, hi, dtype=np.uint32)
        conn = _connected_flags(sub, n)
        candidates = sub[conn & ~seen[lo:hi]]
        for mask in candidates.tolist():
            if seen[mask]:
                continue  # marked by an earlier representative in this chunk
            seen[tables.orbit(mask)] = True
            yield graph_from_mask(n, mask)


def count_connected_graphs(n: int) -> int:
    return sum(1 for _ in enumerate_connected_graphs(n))
