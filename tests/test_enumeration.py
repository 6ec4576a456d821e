"""Canonical forms and connected-graph enumeration."""

from __future__ import annotations

import random

import pytest

from metricgraph import Graph, TooLarge, canonical_form, cycle_graph, enumerate_connected_graphs, path_graph
from metricgraph.enumeration import mask_from_graph, mask_to_canonical_bytes

import oracles
import randgen

# Connected graphs up to isomorphism, n = 1..7 (verified against the
# independent permutation-orbit oracle below for n <= 5).
KNOWN_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


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
        for g in enumerate_connected_graphs(n):
            assert canonical_form(g) == oracles.brute_min_encoding(g)
    rng = random.Random(17)
    for _ in range(10):
        g = randgen.random_connected_graph(rng, 6)
        assert canonical_form(g) == oracles.brute_min_encoding(g)


def test_canonical_iff_isomorphic():
    rng = random.Random(23)
    graphs = list(enumerate_connected_graphs(5))
    for _ in range(40):
        a, b = rng.choice(graphs), rng.choice(graphs)
        a2 = relabeled(a, rng)
        assert (canonical_form(a2) == canonical_form(b)) == oracles.are_isomorphic(a2, b)


def test_canonical_cap():
    with pytest.raises(TooLarge):
        canonical_form(cycle_graph(9))
    assert canonical_form(cycle_graph(9), max_vertices=9)


# ---------------------------------------------------------------------------
# enumerate_connected_graphs
# ---------------------------------------------------------------------------

def test_enumeration_counts():
    for n in range(1, 7):
        assert sum(1 for _ in enumerate_connected_graphs(n)) == KNOWN_COUNTS[n]


def test_enumeration_against_orbit_oracle():
    for n in range(1, 6):
        assert sum(1 for _ in enumerate_connected_graphs(n)) == oracles.brute_connected_class_count(n)


def test_enumeration_pairwise_distinct_canonical_forms():
    for n in range(1, 6):
        forms = [canonical_form(g) for g in enumerate_connected_graphs(n)]
        assert len(set(forms)) == len(forms)


def test_enumeration_representatives_are_canonical():
    """Each representative's own bitmask is already its canonical form: the
    two isomorphism routes (orbit marking vs branch-and-bound) agree."""
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            assert canonical_form(g) == mask_to_canonical_bytes(n, mask_from_graph(g))


def test_enumeration_all_connected_and_deterministic():
    from metricgraph import is_connected

    run1 = [g for g in enumerate_connected_graphs(5)]
    run2 = [g for g in enumerate_connected_graphs(5)]
    assert run1 == run2
    assert all(is_connected(g) for g in run1)


def test_enumeration_cap():
    with pytest.raises(TooLarge):
        list(enumerate_connected_graphs(9))
    with pytest.raises(TooLarge):
        list(enumerate_connected_graphs(0))
