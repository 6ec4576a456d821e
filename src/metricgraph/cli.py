"""Command-line interface.

Each `cmd_*` returns an outcome: an exit code, a document (a dict to
encode as JSON, or text already rendered) and a one-line summary.  `main`
turns each typed error into such an outcome too, and is the only writer:
one document to stdout, one summary line to stderr.  Exit codes: 0 =
success / positive result, 1 = domain-level negative result (condition
fails, violations found, disconnected input) with a witness in the
document, 2 = no answer: a usage, parse or size error, or a failed
self-verification (a bug), each written as one document named by its
error class.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import NoReturn

from .errors import ConditionFailed, Disconnected, MetricGraphError, MetricViolation, NotIntegerMetric, ParseError, TooLarge
from .graph import dump_graph, geodesic_metric, graph_doc, parse_graph
from .metric import MetricSpace, dump_metric, json_text, kay_chartrand_check, parse_metric, rational_to_json
from .quadruples import line_embed, mb_check, plq_classify, quad_inequality, search
from .realization import RealizationResult, ceil_embed, embed, realize

USAGE_ERROR = 2
DOMAIN_NEGATIVE = 1

_Outcome = tuple[int, "dict | str", str]


def _read_input(path: str) -> str:
    try:
        return sys.stdin.read() if path == "-" else Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not {exc.encoding} text: {exc.reason} at byte {exc.start}") from exc


def _emit(text: str) -> None:
    sys.stdout.write(text)


def _load_metric(path: str, fmt: str) -> MetricSpace:
    return parse_metric(_read_input(path), fmt)


def _load_metric_or_graph(path: str) -> MetricSpace:
    """Metric file, or graph file converted through its geodesic metric.

    JSON inputs are told apart by their keys, text inputs by token counts:
    n*n + 1 tokens, n the first, is a matrix (a graph on n >= 2 vertices
    has at most n(n - 1) + 2, and `1 0` is the one-point matrix); else a
    first line `n m` starts a graph, and any other first line a matrix.
    """
    text = _read_input(path)
    stripped = text.lstrip()
    if stripped.lstrip("\ufeff").startswith(("{", "[")):  # a BOM too: json.loads rejects it by name
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
    return parse_metric(text, "text")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args: argparse.Namespace) -> _Outcome:
    doc: dict = {"command": "validate", "metric_valid": True, "violation": None,
                 "integer_valued": None, "kay_chartrand": None}
    try:
        m = _load_metric(args.input, args.format)
    except MetricViolation as v:
        doc.update(metric_valid=False,
                   violation={"kind": v.kind, "witness": list(v.witness), "message": str(v)})
        return DOMAIN_NEGATIVE, doc, f"validate: not a metric ({v.kind} at {v.witness})"
    try:
        witness = kay_chartrand_check(m)
    except NotIntegerMetric:
        doc["integer_valued"] = False
        return DOMAIN_NEGATIVE, doc, "validate: metric ok but not realizable exactly (non-integer distances)"
    doc["integer_valued"] = True
    doc["kay_chartrand"] = {"pass": witness is None, "witness": None if witness is None else list(witness)}
    if witness is None:
        return 0, doc, f"validate: {m.n} points, realizable as a graph geodesic metric"
    return DOMAIN_NEGATIVE, doc, "validate: metric ok but not realizable exactly"


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


def _construction(args: argparse.Namespace, name: str, result: RealizationResult) -> _Outcome:
    doc = {"command": name, **_write_artifacts(args, result)}
    return 0, doc, f"{name}: {doc['vertices']} vertices, {doc['edges']} edges, {doc['aux_count']} auxiliary"


def cmd_realize(args: argparse.Namespace) -> _Outcome:
    try:
        result = realize(_load_metric(args.input, args.format))
    except ConditionFailed as exc:
        return DOMAIN_NEGATIVE, {"command": "realize", "error": "condition_failed",
                                 "witness": list(exc.witness)}, (
            f"realize: no point between {exc.witness}; run embed to subdivide")
    return _construction(args, "realize", result)


def cmd_embed(args: argparse.Namespace) -> _Outcome:
    return _construction(args, "embed", embed(_load_metric(args.input, args.format)))


def cmd_ceil_embed(args: argparse.Namespace) -> _Outcome:
    code, doc, summary = _construction(args, "ceil-embed", ceil_embed(_load_metric(args.input, args.format)))
    return code, doc, summary + "; d <= d_G < d + 1 verified for all pairs"


def cmd_distances(args: argparse.Namespace) -> _Outcome:
    m = geodesic_metric(parse_graph(_read_input(args.input), args.format))
    return 0, dump_metric(m, args.format), f"distances: {m.n}x{m.n} matrix"


def cmd_check(args: argparse.Namespace) -> _Outcome:
    m = _load_metric_or_graph(args.input)
    if args.labels:
        m = m.restrict(args.labels)

    if args.mb:
        witness = mb_check(m)
        doc = {"command": "check", "check": "mb", "pass": witness is None,
               "witness": None if witness is None else list(witness)}
        if witness is None:
            return 0, doc, "check: betweenness class membership holds"
        return DOMAIN_NEGATIVE, doc, f"check: betweenness additivity fails at {witness}"

    if args.line:
        coords = line_embed(m)
        doc = {"command": "check", "check": "line", "embeddable": coords is not None, "coordinates":
               None if coords is None else {k: rational_to_json(v) for k, v in coords.items()}}
        if coords is None:
            return DOMAIN_NEGATIVE, doc, "check: no isometric embedding into the line exists"
        return 0, doc, "check: line-embeddable"

    if args.plq:
        plq = plq_classify(m)
        if plq is None:
            return DOMAIN_NEGATIVE, {"command": "check", "check": "plq", "plq": False}, (
                "check: not a pseudo-linear quadruple")
        return 0, {"command": "check", "check": "plq", "plq": True,
                   "s": rational_to_json(plq.s), "t": rational_to_json(plq.t),
                   "equilateral": plq.equilateral, "ordering": list(plq.ordering)}, (
            f"check: pseudo-linear quadruple with s={plq.s}, t={plq.t}"
            + (" (equilateral)" if plq.equilateral else ""))

    # --quad-ineq: the argparse group requires one of the four modes.
    q = quad_inequality(m, m.labels)
    return 0, {"command": "check", "check": "quad-ineq",
               "ordering": list(m.labels),
               "lhs": rational_to_json(q.lhs),
               "bound": rational_to_json(q.bound),
               "slack": rational_to_json(q.slack),
               "equality": q.slack == 0}, (
        f"check: lhs={q.lhs} <= bound={q.bound} (slack {q.slack})")


def cmd_search(args: argparse.Namespace) -> _Outcome:
    conjecture_id = {"4.2": "C42", "4.4": "C44"}.get(args.conjecture, args.conjecture)
    report = search(conjecture_id, args.max_n, args.max_violations, args.jobs)
    summary = (f"search: {report.graphs_checked} graphs checked, "
               f"{len(report.violations)} violation(s) recorded")
    return DOMAIN_NEGATIVE if report.violations else 0, report.to_json(), summary


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Raises a usage error as `ParseError`, so `main` writes it as one document."""

    def error(self, message: str) -> NoReturn:
        raise ParseError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="metricgraph",
        description="Realize and embed finite metric spaces as graph geodesic metrics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help="input file, or - for stdin")
        p.add_argument("--format", choices=["json", "text"], default="json",
                       help="file format (text = matrix/edge-list)")

    p = sub.add_parser("validate", help="metric axioms, integrality, realizability")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    for name, func in (("realize", cmd_realize), ("embed", cmd_embed),
                       ("ceil-embed", cmd_ceil_embed)):
        p = sub.add_parser(name, help=f"{name} a metric as/into a graph")
        add_common(p)
        p.add_argument("--out", help="write the host graph to this file")
        p.add_argument("--map", help="write the point-to-vertex map to this file")
        p.set_defaults(func=func)

    p = sub.add_parser("distances", help="geodesic distance matrix of a graph")
    add_common(p)
    p.set_defaults(func=cmd_distances)

    p = sub.add_parser("check", help="betweenness-class / line / quadruple checks")
    p.add_argument("input", help="metric or graph file, JSON or text told apart by content; - for stdin")
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


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            code, doc, summary = args.func(args)
            text = doc if isinstance(doc, str) else json_text(doc)
        except MemoryError as exc:  # an input too large to hold, parse or encode
            raise TooLarge("out of memory on this input") from exc
    except MetricViolation as exc:
        code, summary = USAGE_ERROR, f"error: {exc}"
        text = json_text({"error": "metric_violation", "kind": exc.kind,
                          "witness": list(exc.witness), "message": str(exc)})
    except Disconnected as exc:
        code, summary = DOMAIN_NEGATIVE, f"error: {exc}"
        text = json_text({"error": "disconnected", "message": str(exc)})
    except (MetricGraphError, OSError) as exc:
        code, summary = USAGE_ERROR, f"error: {exc}"
        text = json_text({"error": type(exc).__name__, "message": str(exc)})
    _emit(text)
    sys.stderr.write(summary + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
