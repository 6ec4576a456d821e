"""The nine record types keep what README promises: immutable after
construction, equal and hashed by their fields, and safe to send to a
worker process (a pickle round trip gives an equal, working object)."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

import metricgraph.metric
from metricgraph import (
    PLQ, ConjectureReport, ConjectureViolation, Graph, MetricSpace, MetricViolation, NotIntegerMetric,
    ParseError, RealizationResult, ShapeClass, compute_x2_set, cycle_graph, path_graph,
)
from metricgraph.quadruples import QuadInequality
from metricgraph.realization import DistanceMismatch

C4_VIOLATION = {"conjecture_id": "C44", "graph": cycle_graph(4),
                "witness": ("v0", "v1", "v2", "v3"), "direction": "ii_implies_i"}

RECORDS = [
    (MetricSpace, {"labels": ("a", "b", "c"),
                   "dist": ((0, Fraction(1, 2), 1), (Fraction(1, 2), 0, 1), (1, 1, 0))}),
    (Graph, {"vertex_labels": ("x", "y", "z"), "adjacency": ((1,), (0, 2), (1,))}),
    (ShapeClass, {"kind": "path", "size": 2}),
    (RealizationResult, {"graph": path_graph(3), "aux_count": 1}),
    (DistanceMismatch, {"pair": ("a", "b"), "expected": Fraction(3, 2), "actual": 2}),
    (PLQ, {"ordering": ("a", "b", "c", "d"), "s": 1, "t": 2}),
    (QuadInequality, {"lhs": 1, "bound": Fraction(9, 2), "slack": Fraction(7, 2)}),
    (ConjectureViolation, C4_VIOLATION),
    (ConjectureReport, {"conjecture_id": "C44", "max_n": 4, "graphs_checked": 6,
                        "violations": (ConjectureViolation(**C4_VIOLATION),)}),
]


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_are_immutable_hashable_values_that_pickle(cls, fields):
    record = cls(**fields)
    twin = cls(**copy.deepcopy(fields))
    assert record == twin and hash(record) == hash(twin)
    for name, value in fields.items():
        assert getattr(record, name) == value
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    labels = fields.get("labels", fields.get("vertex_labels"))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is cls and back == record and hash(back) == hash(record)
        if cls in (MetricSpace, Graph):
            assert [back.index(lab) for lab in labels] == list(range(len(labels)))


def test_replace_and_make_pass_the_constructors_checks():
    """`_replace` and `_make` build through `MetricSpace(...)` and `Graph(...)`:
    a bad table or adjacency raises the constructor's typed error, and a good
    one gives a record whose lookups work."""
    m = MetricSpace.from_rows(["a", "b"], [[0, 2], [2, 0]])
    with pytest.raises(MetricViolation) as exc:
        m._replace(dist=((0, 5), (7, 0)))
    assert exc.value.kind == "asymmetry"
    with pytest.raises(MetricViolation) as exc:
        MetricSpace._make((("a",), ((1,),)))
    assert exc.value.kind == "diagonal"
    with pytest.raises(ParseError, match="not symmetric"):
        path_graph(3)._replace(adjacency=((1,), (0,), (0,)))
    with pytest.raises(ParseError, match="duplicate vertex label"):
        Graph._make((("x", "x"), ((1,), (0,))))
    moved = m._replace(labels=("x", "y"))
    assert type(moved) is MetricSpace and moved.index("y") == 1 and moved.d("x", "y") == 2
    assert compute_x2_set(moved) == (("x", "y"),)
    renamed = path_graph(3)._replace(vertex_labels=("p", "q", "r"))
    assert type(renamed) is Graph and renamed.index("r") == 2 and renamed.has_edge(1, 2)


def test_pickles_and_copies_keep_the_validating_pass(monkeypatch):
    """A pickle at every protocol, `copy.copy` and `copy.deepcopy` rebuild a
    `MetricSpace` without its validating pass and keep what that pass found:
    the irreducible pairs, or `None` on a table that is not integral.  A
    `restrict`ed space, which has not run the pass, still answers after."""
    egy = MetricSpace.from_rows(["x1", "x2", "x3"], [[0, 3, 4], [3, 0, 5], [4, 5, 0]])
    half = MetricSpace.from_rows(["a", "b"], [[0, "1/2"], ["1/2", 0]])
    sub = egy.restrict(["x3", "x1"])
    rebuilds = [copy.copy, copy.deepcopy, *(
        lambda m, protocol=protocol: pickle.loads(pickle.dumps(m, protocol))
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1))]
    passes = []
    validate = metricgraph.metric.find_metric_violation
    monkeypatch.setattr(metricgraph.metric, "find_metric_violation", lambda *a: passes.append(a) or validate(*a))
    backs = {name: [rebuild(m) for rebuild in rebuilds] for name, m in
             (("egy", egy), ("half", half), ("sub", sub))}
    assert passes == []
    for back in backs["egy"]:
        assert back == egy and back.d("x2", "x3") == 5
        assert back._pairs == ((0, 1), (0, 2), (1, 2))
    for back in backs["half"]:
        assert back == half and back._pairs is None
        with pytest.raises(NotIntegerMetric):
            compute_x2_set(back)
    for back in backs["sub"]:
        assert back == sub and not hasattr(back, "_pairs")
        assert compute_x2_set(back) == (("x3", "x1"),)


def test_pickles_and_copies_rebuild_a_graph_by_construction(monkeypatch):
    """A pickle at every protocol, `copy.copy` and `copy.deepcopy` rebuild a
    `Graph`, alone or inside a `RealizationResult`, without `Graph.__new__`'s
    adjacency scan, and the copy still answers `index`."""
    g = path_graph(5)
    result = RealizationResult(g, 2)
    calls = []
    new = Graph.__new__
    monkeypatch.setattr(Graph, "__new__", staticmethod(lambda cls, *a: calls.append(a) or new(cls, *a)))
    backs = [copy.copy(g), copy.deepcopy(g), *(
        pickle.loads(pickle.dumps(g, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1))]
    backs.append(pickle.loads(pickle.dumps(result)).graph)
    assert calls == []
    for back in backs:
        assert type(back) is Graph and back == g and back.index("v4") == 4
