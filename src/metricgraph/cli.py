"""Command-line interface.

Machine-readable JSON goes to stdout; short human summaries go to stderr.
Exit codes: 0 = success / positive result, 1 = domain-level negative result
(condition fails, violations found, disconnected input) with a witness in
the JSON report, 2 = usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .errors import (
    ConditionFailed,
    Disconnected,
    EmptyGraph,
    EmptySubset,
    MetricViolation,
    NotIntegerMetric,
    ParseError,
    TooLarge,
    TooSmall,
    UnknownLabel,
    WrongArity,
)
from .graph import dump_graph, geodesic_metric, graph_doc, parse_graph
from .metric import MetricSpace, dump_metric, is_integer_metric, json_text, kay_chartrand_check, parse_metric, rational_to_json
from .quadruples import line_embed, mb_check, plq_classify, quad_inequality, search
from .realization import RealizationResult, ceil_embed, embed, realize

USAGE_ERROR = 2
DOMAIN_NEGATIVE = 1


def _read_input(path: str) -> str:
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not {exc.encoding} text: {exc.reason} at byte {exc.start}") from exc


def _emit(doc: dict) -> None:
    sys.stdout.write(json_text(doc))


def _note(message: str) -> None:
    sys.stderr.write(message + "\n")


def _metric_format_of(fmt: str) -> str:
    return "matrix" if fmt == "text" else "json"


def _load_metric(path: str, fmt: str) -> MetricSpace:
    return parse_metric(_read_input(path), _metric_format_of(fmt))


def _load_metric_or_graph(path: str) -> MetricSpace:
    """Metric file, or graph file converted through its geodesic metric.

    JSON inputs are told apart by their keys, text inputs by token counts:
    n*n + 1 tokens, n the first, is a matrix (a graph on n >= 2 vertices
    has at most n(n - 1) + 2, and `1 0` is the one-point matrix); else a
    first line `n m` starts a graph, and any other first line a matrix.
    """
    text = _read_input(path)
    stripped = text.lstrip()
    if stripped.startswith(("{", "[")):
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as exc:  # also an int literal beyond 4300 digits
            raise ParseError(f"invalid JSON: {exc}") from exc
        if isinstance(doc, dict) and "distances" in doc:
            return parse_metric(text, "json")
        if isinstance(doc, dict) and "vertices" in doc:
            return geodesic_metric(parse_graph(text, "json"))
        raise ParseError("JSON input is neither a metric nor a graph document")
    tokens = stripped.split()
    if not tokens:
        raise ParseError("cannot tell metric matrix from graph text input")
    size = math.isqrt(len(tokens) - 1)
    if len(stripped.splitlines()[0].split()) == 2 and (tokens[0], len(tokens)) != (str(size), size * size + 1):
        return geodesic_metric(parse_graph(text, "text"))
    return parse_metric(text, "matrix")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args: argparse.Namespace) -> int:
    try:
        m = _load_metric(args.input, args.format)
    except MetricViolation as v:
        _emit({
            "command": "validate",
            "metric_valid": False,
            "violation": {"kind": v.kind, "witness": list(v.witness), "message": str(v)},
            "integer_valued": None,
            "kay_chartrand": None,
        })
        _note(f"validate: not a metric ({v.kind} at {v.witness})")
        return DOMAIN_NEGATIVE
    integer = is_integer_metric(m)
    kc_doc = None
    ok = integer
    if integer:
        witness = kay_chartrand_check(m)
        kc_doc = {"pass": witness is None,
                  "witness": None if witness is None else list(witness)}
        ok = witness is None
    _emit({
        "command": "validate",
        "metric_valid": True,
        "violation": None,
        "integer_valued": integer,
        "kay_chartrand": kc_doc,
    })
    if ok:
        _note(f"validate: {m.n} points, realizable as a graph geodesic metric")
        return 0
    _note("validate: metric ok but not realizable exactly"
          + ("" if integer else " (non-integer distances)"))
    return DOMAIN_NEGATIVE


def _write_artifacts(args: argparse.Namespace, result: RealizationResult) -> dict:
    # Each point is the host vertex with its own label, and a result only
    # exists once its BFS verification has passed.
    points = result.graph.vertex_labels[:result.graph.n - result.aux_count]
    assignment = {lab: lab for lab in points}
    out_doc: dict = {
        "vertices": result.graph.n,
        "edges": result.graph.edge_count(),
        "aux_count": result.aux_count,
        "verified": True,
        "out": args.out,
        "map": args.map,
    }
    if args.out:
        Path(args.out).write_text(dump_graph(result.graph, args.format))
    else:
        out_doc["graph"] = graph_doc(result.graph)
    if args.map:
        Path(args.map).write_text(
            json_text({"assignment": assignment, "aux_count": result.aux_count}))
    else:
        out_doc["assignment"] = assignment
    return out_doc


def _finish_construction(args: argparse.Namespace, name: str,
                         result: RealizationResult) -> int:
    # Every host vertex is a point or an auxiliary vertex, and points map
    # one to one, so the map is onto exactly when there are no auxiliaries.
    if args.require_onto and result.aux_count:
        _emit({"command": name, "error": "not_onto",
               "unmapped_vertices": result.aux_count})
        _note(f"{name}: map is not onto the host graph "
              f"({result.aux_count} extra vertices); not an isometry")
        return DOMAIN_NEGATIVE
    doc = {"command": name}
    doc.update(_write_artifacts(args, result))
    _emit(doc)
    _note(f"{name}: {result.graph.n} vertices, {result.graph.edge_count()} edges, "
          f"{result.aux_count} auxiliary")
    return 0


def cmd_realize(args: argparse.Namespace) -> int:
    m = _load_metric(args.input, args.format)
    try:
        result = realize(m)
        name = "realize"
    except ConditionFailed as exc:
        if not args.fallback_embed:
            _emit({"command": "realize", "error": "condition_failed",
                   "witness": list(exc.witness)})
            _note(f"realize: no point between {exc.witness}; "
                  f"rerun with --fallback-embed to subdivide")
            return DOMAIN_NEGATIVE
        result = embed(m)
        name = "realize+fallback"
    return _finish_construction(args, name, result)


def cmd_embed(args: argparse.Namespace) -> int:
    m = _load_metric(args.input, args.format)
    return _finish_construction(args, "embed", embed(m))


def cmd_ceil_embed(args: argparse.Namespace) -> int:
    result = ceil_embed(_load_metric(args.input, args.format))
    code = _finish_construction(args, "ceil-embed", result)
    if code == 0:
        _note("ceil-embed: d <= d_G < d + 1 verified for all pairs")
    return code


def cmd_distances(args: argparse.Namespace) -> int:
    g = parse_graph(_read_input(args.input), args.format)
    try:
        m = geodesic_metric(g)
    except Disconnected:
        _emit({"command": "distances", "error": "disconnected"})
        _note("distances: graph is disconnected; geodesic metric undefined")
        return DOMAIN_NEGATIVE
    sys.stdout.write(dump_metric(m, _metric_format_of(args.format)))
    _note(f"distances: {g.n}x{g.n} matrix")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    m = _load_metric_or_graph(args.input)
    if args.labels:
        m = m.restrict(args.labels)

    if args.mb:
        witness = mb_check(m)
        _emit({"command": "check", "check": "mb", "pass": witness is None,
               "witness": None if witness is None else list(witness)})
        if witness is None:
            _note("check: betweenness class membership holds")
            return 0
        _note(f"check: betweenness additivity fails at {witness}")
        return DOMAIN_NEGATIVE

    if args.line:
        coords = line_embed(m)
        if coords is None:
            _emit({"command": "check", "check": "line", "embeddable": False,
                   "coordinates": None})
            _note("check: no isometric embedding into the line exists")
            return DOMAIN_NEGATIVE
        _emit({"command": "check", "check": "line", "embeddable": True,
               "coordinates": {k: rational_to_json(v) for k, v in coords.items()}})
        _note("check: line-embeddable")
        return 0

    if args.plq:
        plq = plq_classify(m)
        if plq is None:
            _emit({"command": "check", "check": "plq", "plq": False})
            _note("check: not a pseudo-linear quadruple")
            return DOMAIN_NEGATIVE
        _emit({"command": "check", "check": "plq", "plq": True,
               "s": rational_to_json(plq.s), "t": rational_to_json(plq.t),
               "equilateral": plq.equilateral, "ordering": list(plq.ordering)})
        _note(f"check: pseudo-linear quadruple with s={plq.s}, t={plq.t}"
              + (" (equilateral)" if plq.equilateral else ""))
        return 0

    # --quad-ineq: the argparse group requires one of the four modes.
    q = quad_inequality(m, m.labels)
    _emit({"command": "check", "check": "quad-ineq",
           "ordering": list(m.labels),
           "lhs": rational_to_json(q.lhs),
           "bound": rational_to_json(q.bound),
           "slack": rational_to_json(q.slack),
           "equality": q.slack == 0})
    _note(f"check: lhs={q.lhs} <= bound={q.bound} (slack {q.slack})")
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    conjecture_id = {"4.2": "C42", "4.4": "C44"}.get(args.conjecture, args.conjecture)
    report = search(conjecture_id, args.max_n, args.max_violations, args.jobs)
    sys.stdout.write(report.to_json())
    _note(f"search: {report.graphs_checked} graphs checked, "
          f"{len(report.violations)} violation(s) recorded")
    return 0 if not report.violations else DOMAIN_NEGATIVE


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metricgraph",
        description="Realize and embed finite metric spaces as graph geodesic metrics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help="input file, or - for stdin")
        p.add_argument("--format", choices=["json", "text"], default="json",
                       help="file format (text = matrix/edge-list); check detects it itself")

    p = sub.add_parser("validate", help="metric axioms, integrality, realizability")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    for name, func in (("realize", cmd_realize), ("embed", cmd_embed),
                       ("ceil-embed", cmd_ceil_embed)):
        p = sub.add_parser(name, help=f"{name} a metric as/into a graph")
        add_common(p)
        p.add_argument("--out", help="write the host graph to this file")
        p.add_argument("--map", help="write the point-to-vertex map to this file")
        p.add_argument("--require-onto", action="store_true",
                       help="fail unless the map is onto the host graph (isometry)")
        if name == "realize":
            p.add_argument("--fallback-embed", action="store_true",
                           help="fall back to subdivision embedding when exact "
                                "realization is impossible")
        p.set_defaults(func=func)

    p = sub.add_parser("distances", help="geodesic distance matrix of a graph")
    add_common(p)
    p.set_defaults(func=cmd_distances)

    p = sub.add_parser("check", help="betweenness-class / line / quadruple checks")
    add_common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--mb", action="store_true")
    group.add_argument("--line", action="store_true")
    group.add_argument("--plq", action="store_true")
    group.add_argument("--quad-ineq", action="store_true")
    p.add_argument("labels", nargs="*", help="point labels (subset or ordering)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("search", help="sweep enumerated connected graphs")
    p.add_argument("--conjecture", required=True, help="4.2 or 4.4")
    p.add_argument("--max-n", type=int, default=6, dest="max_n")
    p.add_argument("--max-violations", type=int, default=100,
                   dest="max_violations")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_search)

    return parser


_USAGE_ERRORS = (
    ParseError, UnknownLabel, WrongArity, TooLarge, TooSmall,
    NotIntegerMetric, EmptySubset, EmptyGraph, OSError,
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            return args.func(args)
        except MemoryError as exc:  # an input too large to hold or parse
            raise TooLarge("out of memory on this input") from exc
    except MetricViolation as exc:
        _emit({"error": "metric_violation", "kind": exc.kind,
               "witness": list(exc.witness), "message": str(exc)})
        _note(f"error: {exc}")
        return USAGE_ERROR
    except Disconnected as exc:
        _emit({"error": "disconnected", "message": str(exc)})
        _note(f"error: {exc}")
        return DOMAIN_NEGATIVE
    except _USAGE_ERRORS as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)})
        _note(f"error: {exc}")
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
