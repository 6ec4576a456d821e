"""Canonical forms and connected-graph enumeration."""

from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest

from metricgraph import Graph, TooLarge, canonical_form, cycle_graph, enumerate_connected_graphs, path_graph
from metricgraph import enumeration
from metricgraph.enumeration import (
    _columns, _encode, _pair_positions, _search, graph_from_mask, split_trees,
)

import oracles
import randgen

# Connected graphs up to isomorphism, n = 1..8 (OEIS A001349; checked
# against the independent permutation-orbit oracle below for n <= 6).
KNOWN_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}


def stream_masks(n: int) -> tuple[int, ...]:
    """The masks of the whole walk for n, walked once per test session."""
    return tuple(mask for mask, _ in oracles.class_nodes(n))


def relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    labels = [f"w{i}" for i in range(g.n)]
    return Graph.from_edges(labels, [(perm[i], perm[j]) for (i, j) in g.edges()])


# ---------------------------------------------------------------------------
# canonical_form
# ---------------------------------------------------------------------------

def test_canonical_relabeling_invariance():
    rng = random.Random(5)
    p3 = path_graph(3)
    assert canonical_form(relabeled(p3, rng)) == canonical_form(p3)
    k3 = cycle_graph(3)
    assert canonical_form(p3) != canonical_form(k3)
    assert canonical_form(cycle_graph(4)) != canonical_form(path_graph(4))


def test_canonical_matches_brute_force_min():
    for n in range(1, 6):
        for g in oracles.class_graphs(n):
            assert canonical_form(g) == oracles.brute_min_encoding(g)
    rng = random.Random(17)
    for _ in range(10):
        g = randgen.random_connected_graph(rng, 6)
        assert canonical_form(g) == oracles.brute_min_encoding(g)


def test_canonical_iff_isomorphic():
    rng = random.Random(23)
    graphs = oracles.class_graphs(5)
    for _ in range(40):
        a, b = rng.choice(graphs), rng.choice(graphs)
        a2 = relabeled(a, rng)
        assert (canonical_form(a2) == canonical_form(b)) == oracles.are_isomorphic(a2, b)


def test_canonical_cap():
    with pytest.raises(TooLarge):
        canonical_form(cycle_graph(10))
    assert canonical_form(cycle_graph(9))  # HARD_CAP = 9 vertices is allowed


def nbr_of_mask(n: int, mask: int) -> list[int]:
    nbits = n * (n - 1) // 2
    nbr = [0] * n
    for c, (i, j) in enumerate(_pair_positions(n)):
        if mask >> (nbits - 1 - c) & 1:
            nbr[i] |= 1 << j
            nbr[j] |= 1 << i
    return nbr


def test_minimality_test_matches_slicing_oracle():
    """Every mask, connected or not, for n <= 6 and a seeded sample at n = 7."""
    cases = [(n, mask) for n in range(1, 7) for mask in range(1 << (n * (n - 1) // 2))]
    rng = random.Random(7)
    cases += [(7, rng.getrandbits(21)) for _ in range(2000)]
    verdicts = set()
    for n, mask in cases:
        nbr = nbr_of_mask(n, mask)
        verdict = not _search(n, nbr, _columns(n, mask), stop=True)
        assert verdict == oracles.is_orbit_minimal(n, mask, nbr), (n, mask)
        verdicts.add((n, verdict))
    assert {(n, v) for n in range(3, 8) for v in (False, True)} <= verdicts


def complete_multipartite(*sizes: int) -> Graph:
    part = [p for p, size in enumerate(sizes) for _ in range(size)]
    n = len(part)
    return Graph.from_edges([f"v{k}" for k in range(n)],
                            [(u, v) for v in range(n) for u in range(v) if part[u] != part[v]])


# x - y - z with open twins a1, a2, a3 on {x, y} and closed twins d1 ~ d2 on z.
OPEN_AND_CLOSED = Graph.from_edges(
    ["x", "y", "z", "a1", "a2", "a3", "d1", "d2"],
    [(0, 1), (1, 2), *((a, b) for a in (3, 4, 5) for b in (0, 1)), (6, 7), (6, 2), (7, 2)],
)
TWIN_RICH = {
    "K1,7": complete_multipartite(1, 7),
    "K1,8": complete_multipartite(1, 8),
    "K3,4": complete_multipartite(3, 4),
    "K2,2,2": complete_multipartite(2, 2, 2),
    "K2,2,3": complete_multipartite(2, 2, 3),
    "K8 minus a perfect matching": complete_multipartite(2, 2, 2, 2),
    "open and closed twins": OPEN_AND_CLOSED,
    "C8": cycle_graph(8),
}


@pytest.mark.parametrize("name", list(TWIN_RICH))
def test_twin_rich_graphs_match_the_oracles(name):
    """Both uses of `_search` on graphs whose twin classes it prunes: the
    canonical form is the brute-force minimum (n <= 8) and the same on 20
    relabelings, and the minimality verdict on each relabeling's own mask,
    and on the canonical mask, is the slicing oracle's."""
    g = TWIN_RICH[name]
    n = g.n
    form = canonical_form(g)
    if n <= 8:
        assert form == oracles.brute_min_encoding(g)
    canonical = int.from_bytes(form[1:], "big") >> (8 * len(form[1:]) - n * (n - 1) // 2)
    masks = [canonical]
    rng = random.Random(29)
    for _ in range(20):
        h = relabeled(g, rng)
        assert canonical_form(h) == form
        nbr = [sum(1 << j for j in row) for row in h.adjacency]
        mask = 0
        for k in range(n):
            mask = mask << k | sum((nbr[k] >> i & 1) << (k - 1 - i) for i in range(k))
        masks.append(mask)
    for mask in masks:
        nbr = nbr_of_mask(n, mask)
        verdict = not _search(n, nbr, _columns(n, mask), stop=True)
        assert verdict == oracles.is_orbit_minimal(n, mask, nbr), (name, mask)
    assert not _search(n, nbr_of_mask(n, canonical), _columns(n, canonical), stop=True)


def test_graph_from_mask_matches_the_edge_route():
    """Every mask, connected or not, for n <= 5 and a seeded sample at
    n = 7 and 9: the rows decoded from the columns give the graph that
    `Graph.from_edges` builds from the set bits."""
    cases = [(n, mask) for n in range(1, 6) for mask in range(1 << (n * (n - 1) // 2))]
    rng = random.Random(9)
    cases += [(n, rng.getrandbits(n * (n - 1) // 2)) for n in (7, 9) for _ in range(300)]
    for n, mask in cases:
        nbits = n * (n - 1) // 2
        edges = [p for c, p in enumerate(_pair_positions(n)) if mask >> (nbits - 1 - c) & 1]
        g = graph_from_mask(n, mask)
        assert g == Graph.from_edges([f"v{k}" for k in range(n)], edges), (n, mask)


# ---------------------------------------------------------------------------
# enumerate_connected_graphs
# ---------------------------------------------------------------------------

def test_enumeration_counts():
    for n in range(1, 7):
        assert sum(1 for _ in enumerate_connected_graphs(n)) == KNOWN_COUNTS[n]


def test_enumeration_against_orbit_oracle():
    for n in range(1, 7):
        assert sum(1 for _ in enumerate_connected_graphs(n)) == oracles.brute_connected_class_count(n)


def test_enumeration_count_n8():
    """A001349 at n = 8, each class's mask strictly above the one before."""
    masks = stream_masks(8)
    assert len(masks) == KNOWN_COUNTS[8]
    assert all(a < b for a, b in zip(masks, masks[1:]))


def test_edge_counts_match_polya():
    """Each class's mask has one bit per edge, so the stream's popcount
    histogram is the number of classes per edge count, which Polya's count
    gives independently for n <= 8; its totals are A001349 for n <= 10."""
    counts = oracles.polya_connected_counts(10)
    for n in range(1, 9):
        histogram = Counter(mask.bit_count() for mask in stream_masks(n))
        assert histogram == {m: c for m, c in enumerate(counts[n]) if c}, n
    assert [sum(counts[n]) for n in range(1, 11)] == [*KNOWN_COUNTS.values(), 261080, 11716571]


# sha256 of the concatenated `_encode(n, mask)` of the whole walk for n.
STREAM_SHA256 = {
    1: "4bf5122f344554c53bde2ebb8cd2b7e3d1600ad631c385a5d7cce23c7785459a",
    2: "61d7e4731e7a6546d92e99105ffce332c9ab905311cba8dbad8ac4f3bbc49447",
    3: "48a32e97024921f867433db951725e0477b38ceba5daddd34ce94df7dc00af9e",
    4: "cd31e97a5c5192ac61d1fb437c47a4e01be8da5a6c5b55fb82990a3ee536f30f",
    5: "0ca507d602f2472610c815d067946d5cf4279d6bfe3a7fcdd1471f7199fbd6ef",
    6: "f17d3bdc898804321d16cc75aa2dbacd44ab8c6ae85f2d209afd567ef410da97",
    7: "61ab07fb29f684967a64d81b3520423e2ae687dd3592b3c464ef137e33d2fd3c",
    8: "0d5b1ee6232c3983617e8c4b1e09d1923c90361338bd80c0fe15dd17e60896dd",
}


@pytest.mark.parametrize("n", sorted(STREAM_SHA256))
def test_enumeration_stream_is_pinned(n):
    """The generator's exact output: a pruning fault that swaps one class's
    representative for another of its masks fails here even where the
    counts still match."""
    stream = b"".join(_encode(n, mask) for mask in stream_masks(n))
    assert hashlib.sha256(stream).hexdigest() == STREAM_SHA256[n]


def test_enumeration_streams_the_first_class(monkeypatch):
    """The first n = 8 class comes out after the minimality tests on one
    root-to-leaf path and its siblings, not after all 15 583 of the level."""
    calls = 0
    search = enumeration._search

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return search(*args, **kwargs)

    monkeypatch.setattr(enumeration, "_search", counting)
    first, _ = next(enumerate_connected_graphs(8))
    assert 0 < calls < 1000
    assert graph_from_mask(8, first).edges() == [(i, 7) for i in range(7)]  # the star: the least connected mask


@pytest.mark.parametrize("min_n, max_n, count", [(1, 8, 64), (1, 6, 2), (5, 5, 1000)])
def test_shards_cover_each_tree_once(min_n, max_n, count):
    """Walked shard by shard, each n's classes sorted by mask are the
    whole walk's stream, with no mask twice and with the whole walk's
    neighbour bitmasks (the single classes carry theirs); a subtree comes
    out in mask order, and the single classes in (n, mask) order."""
    shards = split_trees(min_n, max_n, count)
    masks: dict[int, list[int]] = {n: [] for n in range(min_n, max_n + 1)}
    reference = {n: dict(oracles.class_nodes(n)) for n in masks}
    for shard in shards:
        walked = [(n, mask, nbr) for n, root in shard for mask, nbr in enumerate_connected_graphs(n, root)]
        keys = [(n, mask) for n, mask, _ in walked]
        assert keys == sorted(set(keys))
        for n, mask, nbr in walked:
            assert nbr == reference[n][mask], (n, mask)
            masks[n].append(mask)
    for n, found in masks.items():
        assert tuple(sorted(found)) == stream_masks(n), n
    subtrees = [shard for shard in shards if shard[0][1][2]]
    assert len(subtrees) >= count or len(subtrees) == 0


def test_enumeration_matches_networkx_atlas():
    """The atlas holds every graph on up to 7 vertices, one per class."""
    nx = pytest.importorskip("networkx")
    atlas: dict[int, set[bytes]] = {n: set() for n in range(1, 8)}
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() and nx.is_connected(h):
            g = Graph.from_edges([f"a{v}" for v in range(h.number_of_nodes())], list(h.edges()))
            atlas[g.n].add(canonical_form(g))
    for n, forms in atlas.items():
        emitted = [_encode(n, mask) for mask, _ in oracles.class_nodes(n)]
        assert len(emitted) == len(forms) == KNOWN_COUNTS[n]
        assert set(emitted) == forms


def test_enumeration_pairwise_distinct_canonical_forms():
    for n in range(1, 6):
        forms = [canonical_form(g) for g in oracles.class_graphs(n)]
        assert len(set(forms)) == len(forms)


def test_enumeration_representatives_are_canonical():
    """Each representative's own bitmask is already its canonical form: the
    two isomorphism routes (orbit marking vs branch-and-bound) agree."""
    for n in range(2, 7):
        for mask, _ in oracles.class_nodes(n):
            assert canonical_form(graph_from_mask(n, mask)) == _encode(n, mask)


def test_enumeration_all_connected_and_deterministic():
    """Two walks agree, every class is connected, and each node's nbr are
    the rows of its mask's graph, for n <= 7."""
    from metricgraph import is_connected

    run1 = list(enumerate_connected_graphs(5))
    run2 = list(enumerate_connected_graphs(5))
    assert run1 == run2
    assert all(is_connected(graph_from_mask(5, mask)) for mask, _ in run1)
    for n in range(1, 8):
        for mask, nbr in oracles.class_nodes(n):
            g = graph_from_mask(n, mask)
            assert nbr == [sum(1 << j for j in row) for row in g.adjacency], (n, mask)


def test_enumeration_cap():
    with pytest.raises(TooLarge):
        list(enumerate_connected_graphs(10))
    with pytest.raises(TooLarge):
        list(enumerate_connected_graphs(0))
