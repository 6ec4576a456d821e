"""metricgraph: finite metric spaces as graph geodesic metrics.

Realize integer metric spaces exactly as geodesic metrics, embed arbitrary
integer (and, via ceiling, rational) metrics isometrically into graphs, and
exhaustively check betweenness/quadruple conjectures over enumerated small
connected graphs.
"""

from .errors import (
    ConditionFailed,
    Disconnected,
    EmptyGraph,
    EmptySubset,
    InternalVerificationFailure,
    MetricGraphError,
    MetricViolation,
    NotIntegerMetric,
    ParseError,
    TooLarge,
    TooSmall,
    UnknownLabel,
    WrongArity,
)
from .metric import (
    MetricSpace,
    between,
    ceiling_metric,
    compute_x2_set,
    dump_metric,
    format_rational,
    kay_chartrand_check,
    parse_metric,
    parse_rational,
)
from .graph import (
    Graph,
    ShapeClass,
    classify_shape,
    cycle_graph,
    dump_graph,
    geodesic_distances,
    geodesic_metric,
    induced_subgraph,
    is_connected,
    parse_graph,
    path_graph,
    shortest_path,
)
from .enumeration import canonical_form, enumerate_connected_graphs, graph_from_mask
from .realization import (
    RealizationResult,
    ceil_embed,
    embed,
    realize,
    verify_map,
)
from .quadruples import (
    PLQ,
    ConjectureReport,
    ConjectureViolation,
    check_conjecture_42,
    check_conjecture_44,
    line_embed,
    mb_check,
    plq_classify,
    quad_inequality,
    replay_violation,
    search,
)

__version__ = "0.1.0"

__all__ = [
    "MetricGraphError", "ParseError", "MetricViolation", "UnknownLabel",
    "NotIntegerMetric", "ConditionFailed", "InternalVerificationFailure",
    "Disconnected", "EmptySubset", "EmptyGraph", "TooLarge", "TooSmall",
    "WrongArity",
    "MetricSpace", "parse_metric", "dump_metric", "parse_rational",
    "format_rational", "between", "kay_chartrand_check",
    "compute_x2_set", "ceiling_metric",
    "Graph", "ShapeClass", "parse_graph", "dump_graph", "geodesic_distances",
    "geodesic_metric", "is_connected", "induced_subgraph", "classify_shape",
    "shortest_path", "path_graph", "cycle_graph",
    "canonical_form", "enumerate_connected_graphs", "graph_from_mask",
    "RealizationResult", "realize", "embed", "ceil_embed", "verify_map",
    "mb_check", "line_embed", "PLQ", "plq_classify", "quad_inequality",
    "check_conjecture_42", "check_conjecture_44", "search",
    "ConjectureReport", "ConjectureViolation", "replay_violation",
]
