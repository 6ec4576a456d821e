"""Simple undirected graphs and BFS geodesic distances.

A `Graph` is an immutable `NamedTuple`: labeled vertices plus sorted
per-vertex neighbor index lists, checked once, by its constructor.  A
`Graph` may be disconnected; every geodesic-metric consumer checks
connectivity and raises `Disconnected` otherwise.  Unreachable distance
entries are None.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from typing import NamedTuple

from .errors import Disconnected, ParseError, TooLarge, TooSmall, UnknownLabel, excerpt
from .metric import MetricSpace, json_arrays, json_text, label_index

DistanceMatrix = tuple[tuple[int | None, ...], ...]

# Most vertices a text graph header may declare or an embedding's host
# graph may have (one vertex per point plus d - 1 per irreducible pair of
# distance d).
MAX_HOST_VERTICES = 1_000_000


class _GraphFields(NamedTuple):
    vertex_labels: tuple[str, ...]
    adjacency: tuple[tuple[int, ...], ...]


class Graph(_GraphFields):
    """Finite simple undirected graph with labeled vertices."""

    def __new__(cls, vertex_labels: tuple[str, ...], adjacency: tuple[tuple[int, ...], ...]) -> "Graph":
        g = cls._of_graph(vertex_labels, adjacency)
        n, rows = len(vertex_labels), adjacency
        if len(rows) != n:
            raise ParseError(f"{n} vertices but {len(rows)} adjacency rows")
        for i, row in enumerate(rows):
            prev = -1
            for j in row:
                if type(j) is not int or not 0 <= j < n:
                    raise ParseError(f"neighbor {excerpt(j)} of vertex {i} is not an index below {n}")
                if j == i:
                    raise ParseError(f"self-loop at vertex {i}")
                if j <= prev:
                    raise ParseError(f"duplicate edge ({i},{j})" if j == prev else
                                     f"neighbor list of vertex {i} is not sorted")
                prev = j
        for i, row in enumerate(rows):  # row j is sorted: i is in it iff its insertion points differ
            for j in row:
                if bisect_left(rows[j], i) == bisect_right(rows[j], i):
                    raise ParseError(f"edge ({i},{j}) is not symmetric")
        return g

    @classmethod
    def _make(cls, fields) -> "Graph":  # `_replace` calls this: build through `__new__`
        return cls(*fields)

    def __reduce__(self):  # pickle and copy rebuild by construction and keep `_index`
        return type(self)._of_graph, tuple(self), self.__dict__

    @classmethod
    def _of_graph(cls, vertex_labels: tuple[str, ...], adjacency: tuple[tuple[int, ...], ...]) -> "Graph":
        """A graph on an adjacency that is simple and symmetric by construction, built
        here for `__new__` too: it checks for a vertex, then the labels, but no edge."""
        if len(vertex_labels) == 0:
            raise ParseError("a graph needs at least one vertex")
        g = tuple.__new__(cls, (vertex_labels, adjacency))
        g._index = label_index(vertex_labels, "vertex")  # type: ignore[attr-defined]
        return g

    @classmethod
    def from_edges(
        cls,
        vertex_labels: list[str] | tuple[str, ...],
        edges: list[tuple[int, int]] | tuple,
    ) -> "Graph":
        """One edge per (i, j) entry; the constructor checks the rest."""
        n = len(vertex_labels)
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for e in edges:
            if not isinstance(e, (list, tuple)) or len(e) != 2:
                raise ParseError(f"edge {excerpt(e)} must be a pair")
            i, j = e
            if type(i) is not int or type(j) is not int or not (0 <= i < n and 0 <= j < n):
                raise ParseError(f"edge {excerpt(e)} must hold integer indices below {n}")
            nbrs[i].append(j)
            nbrs[j].append(i)
        return cls(
            tuple(vertex_labels),
            tuple(tuple(sorted(s)) for s in nbrs),
        )

    @property
    def n(self) -> int:
        return len(self.vertex_labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownLabel(f"unknown vertex label {excerpt(label)}") from None

    def edges(self) -> list[tuple[int, int]]:
        """Edge list as index pairs (i, j) with i < j, sorted."""
        return [(i, j) for i in range(self.n) for j in self.adjacency[i] if i < j]

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def has_edge(self, i: int, j: int) -> bool:
        return j in self.adjacency[i]


# ---------------------------------------------------------------------------
# Factories
# ---------------------------------------------------------------------------

def path_graph(n: int) -> Graph:
    """Path on n vertices v0-v1-...-v{n-1}."""
    return Graph.from_edges([f"v{i}" for i in range(n)], [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    """Cycle on n >= 3 vertices in ring order."""
    if n < 3:
        raise ParseError(f"a cycle needs at least 3 vertices, got {n}")
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Graph.from_edges([f"v{i}" for i in range(n)], edges)


# ---------------------------------------------------------------------------
# BFS distances and paths
# ---------------------------------------------------------------------------

def _bfs_from(adjacency: tuple[tuple[int, ...], ...] | list[list[int]], src: int) -> list[int | None]:
    """Edge counts from src over the neighbour lists `adjacency`, None if unreached."""
    dist: list[int | None] = [None] * len(adjacency)
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for v in adjacency[u]:
            if dist[v] is None:
                dist[v] = du + 1  # type: ignore[operator]
                queue.append(v)
    return dist


def geodesic_distances(g: Graph) -> DistanceMatrix:
    """All-pairs minimum edge counts via BFS from every vertex.

    Entries are None exactly for vertex pairs in different components.
    """
    return tuple(tuple(_bfs_from(g.adjacency, s)) for s in range(g.n))


def is_connected(g: Graph) -> bool:
    return all(v is not None for v in _bfs_from(g.adjacency, 0))


def connected_distances(g: Graph) -> tuple[tuple[int, ...], ...]:
    """BFS rows of a connected graph, a metric by construction (Kay and
    Chartrand, 1964); the tests validate them for every connected class
    with n <= 7.  The sweep kernels' rows come from the same `_bfs_from`.
    Raises `Disconnected` when vertex 0's row leaves a vertex unreached,
    before any other BFS runs."""
    first = _bfs_from(g.adjacency, 0)
    if None in first:
        raise Disconnected("geodesic metric requires a connected graph")
    return (tuple(first), *(tuple(_bfs_from(g.adjacency, s)) for s in range(1, g.n)))  # type: ignore[return-value]


def geodesic_metric(g: Graph) -> MetricSpace:
    """The geodesic distance as a MetricSpace of `int` BFS edge counts, a
    metric by construction and so not re-validated: one call per CLI
    request.  Raises `Disconnected` as `connected_distances` does."""
    return MetricSpace._of_metric(g.vertex_labels, connected_distances(g))


def shortest_path(g: Graph, x: str, z: str) -> list[str]:
    """One shortest path from x to z, as vertex labels.

    Deterministic: walking back from z, each predecessor is the
    lowest-index neighbor one BFS level closer to x.
    """
    src, dst = g.index(x), g.index(z)
    dist = _bfs_from(g.adjacency, src)
    if dist[dst] is None:
        raise Disconnected(f"no path joins {excerpt(x)} and {excerpt(z)}")
    rev = [dst]
    cur = dst
    while cur != src:
        cur = min(v for v in g.adjacency[cur] if dist[v] == dist[cur] - 1)
        rev.append(cur)
    return [g.vertex_labels[i] for i in reversed(rev)]


# ---------------------------------------------------------------------------
# Subgraphs and shape classification
# ---------------------------------------------------------------------------

def induced_subgraph(g: Graph, subset: set[str] | list[str] | tuple[str, ...]) -> Graph:
    """Subgraph on the given labels keeping exactly the edges of g, in the
    host graph's vertex order; a repeated label counts once.  Raises
    `UnknownLabel` for the first unknown label in the caller's order."""
    kept = sorted({g.index(lab) for lab in subset})
    if not kept:
        raise TooSmall("induced subgraph needs a nonempty vertex subset")
    remap = {old: new for new, old in enumerate(kept)}
    return Graph(tuple(g.vertex_labels[i] for i in kept),
                 tuple(tuple(remap[j] for j in g.adjacency[i] if j in remap) for i in kept))


class ShapeClass(NamedTuple):
    """Degree-sequence shape: single_vertex, path (size = edge count),
    cycle (size = vertex count), or other."""

    kind: str
    size: int | None = None

    @property
    def is_path(self) -> bool:
        return self.kind == "path"

    @property
    def is_cycle(self) -> bool:
        return self.kind == "cycle"


def classify_shape(g: Graph) -> ShapeClass:
    n = g.n
    if n == 1:
        return ShapeClass("single_vertex")
    # Degrees first: only a path's or a cycle's pays for the BFS.
    degrees = sorted(g.degree(i) for i in range(n))
    if degrees == [1, 1] + [2] * (n - 2) and is_connected(g):
        return ShapeClass("path", n - 1)
    if n >= 3 and degrees == [2] * n and is_connected(g):
        return ShapeClass("cycle", n)
    return ShapeClass("other")


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------

def parse_graph(text: str, format: str = "json") -> Graph:
    """Parse a graph from JSON (`{"vertices": [...], "edges": [[i,j], ...]}`)
    or text (`n m` header then m lines `i j`); indices are 0-based.  A text
    header above `MAX_HOST_VERTICES` raises `TooLarge`."""
    if format == "json":
        return Graph.from_edges(*json_arrays(text, "graph", ("vertices", "edges")))

    if format == "text":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise ParseError("empty graph input")
        header = lines[0].split()
        if len(header) != 2:
            raise ParseError(f"expected header 'n m', got {excerpt(lines[0])}")
        try:
            n, m = int(header[0]), int(header[1])
        except ValueError as exc:
            raise ParseError(f"bad header {excerpt(lines[0])}") from exc
        if n > MAX_HOST_VERTICES:
            raise TooLarge(f"header declares {excerpt(n)} vertices, more than {MAX_HOST_VERTICES}")
        if len(lines) - 1 != m:
            raise ParseError(f"expected {m} edge lines, got {len(lines) - 1}")
        try:
            pairs = [tuple(map(int, ln.split())) for ln in lines[1:]]
        except ValueError as exc:
            raise ParseError(f"bad edge line: {exc}") from exc
        return Graph.from_edges([f"v{i}" for i in range(n)], pairs)

    raise ParseError(f"unknown graph format {format!r}")


def graph_doc(g: Graph) -> dict:
    """Graph as a JSON-ready dict with sorted i < j edge pairs."""
    return {
        "vertices": list(g.vertex_labels),
        "edges": [[i, j] for (i, j) in g.edges()],
    }


def dump_graph(g: Graph, format: str = "json") -> str:
    """Serialize a graph; edges are emitted with i < j in sorted order."""
    if format == "json":
        return json_text(graph_doc(g))
    if format == "text":
        lines = [f"{g.n} {g.edge_count()}"]
        for i, j in g.edges():
            lines.append(f"{i} {j}")
        return "\n".join(lines) + "\n"
    raise ParseError(f"unknown graph format {format!r}")
