"""Exception types shared across the package."""

from __future__ import annotations


def excerpt(value: object) -> str:
    """`repr(value)` cut to 80 characters, for an error message to repeat."""
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


class MetricGraphError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(MetricGraphError):
    """Input text is malformed (bad JSON, bad shape, bad token, bad label)."""


class MetricViolation(MetricGraphError):
    """A distance table violates a metric axiom.

    ``kind`` is one of ``"shape"``, ``"diagonal"``, ``"asymmetry"``,
    ``"nonpositive"``, ``"triangle"``; ``witness`` carries the offending
    index pair or triple.
    """

    def __init__(self, kind: str, witness: tuple[int, ...], message: str):
        super().__init__(message)
        self.kind = kind
        self.witness = witness


class UnknownLabel(MetricGraphError):
    """A point or vertex label does not exist in the given space/graph."""


class NotIntegerMetric(MetricGraphError):
    """Operation requires all distances to be integers."""


class ConditionFailed(MetricGraphError):
    """Exact realization precondition fails; ``witness`` is the first pair
    at distance >= 2 with no point between it."""

    def __init__(self, witness: tuple[str, str]):
        super().__init__(
            f"no point lies between {excerpt(witness[0])} and {excerpt(witness[1])} "
            f"(distance >= 2); exact realization impossible"
        )
        self.witness = witness


class InternalVerificationFailure(MetricGraphError):
    """A construction failed its own output verification.  This indicates a
    bug, not a caller error."""


class Disconnected(MetricGraphError):
    """Operation requires a connected graph."""


class EmptySubset(MetricGraphError):
    """Induced subgraph requested on an empty vertex subset."""


class EmptyGraph(MetricGraphError):
    """Operation requires a graph with at least one edge."""


class TooLarge(MetricGraphError):
    """A size exceeds a configured cap: the enumeration and
    canonicalization vertex cap, the host-graph vertex cap of an embedding
    or a text graph header, or the digit cap on exact distance values."""


class TooSmall(MetricGraphError):
    """A size or count is below what the operation needs: a graph's
    vertex count, or a sweep's max_n, jobs or max_violations."""


class WrongArity(MetricGraphError):
    """Operation requires exactly four distinct labels."""
