"""Finite metric spaces with exact rational distances.

Distances are exact rationals: an integral distance is stored as a Python
`int` and a non-integral one as a `fractions.Fraction` (both expose
`.numerator` and `.denominator`).  No floating point is used anywhere, so
strict inequalities (needed by the ceiling-embedding distortion bound) are
decided exactly.  A `MetricSpace` validates the axioms, decides integrality
and finds its irreducible pairs in one pass at construction (a metric the
package builds by construction runs it on first use), and is immutable.
"""

from __future__ import annotations

import json
import math
import operator
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .errors import (
    MetricViolation,
    NotIntegerMetric,
    ParseError,
    TooLarge,
    UnknownLabel,
    excerpt,
)

RESERVED_PREFIX = "__"

# Digit cap on exact values: a parsed decimal exponent, the lcm L of a
# table's denominators and every entry times L stay within it, so every
# value printed, quadruple products included, stays under Python's
# 4300-digit int-to-str limit.
MAX_DIGITS = 2000
_DIGIT_BOUND = 10 ** MAX_DIGITS

# An exact distance: `int` when integral, `Fraction` otherwise.
Rational = int | Fraction


# ---------------------------------------------------------------------------
# Exact rational values
# ---------------------------------------------------------------------------

def parse_rational(value: int | str | Fraction) -> Rational:
    """Parse an exact rational from an int, a Fraction, or a string.

    Accepted string forms: integers ("3"), finite decimals ("2.3"),
    fractions ("23/10"), and scientific notation ("1e-3"); all are parsed
    exactly.  Integral values come back as `int`, others as `Fraction`.
    Floats are rejected: binary floats cannot represent finite decimals
    exactly.  A decimal exponent beyond +-`MAX_DIGITS` raises `TooLarge`
    before the value is built.
    """
    if isinstance(value, bool):
        raise ParseError(f"boolean is not a distance value: {value!r}")
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        raise ParseError(f"float distance {value!r} rejected; pass a decimal string instead")
    if isinstance(value, (str, Fraction)):
        try:
            if isinstance(value, str) and value.isascii() and value.isdigit():
                return int(value)  # a plain integer token skips Fraction's regex
            if isinstance(value, str) and ("e" in value or "E" in value):
                if abs(int(value.lower().partition("e")[2])) > MAX_DIGITS:
                    raise TooLarge(f"distance {excerpt(value)} has a decimal exponent beyond {MAX_DIGITS}")
            q = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"not a rational number: {excerpt(value)}") from exc
        return q.numerator if q.denominator == 1 else q
    raise ParseError(f"unsupported distance value: {excerpt(value)}")


def format_rational(q: Rational) -> str:
    """Render an exact rational so that `parse_rational` round-trips it."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def rational_to_json(q: Rational) -> int | str:
    """JSON-friendly form: plain int when integral, "p/q" string otherwise."""
    if q.denominator == 1:
        return q.numerator
    return format_rational(q)


# ---------------------------------------------------------------------------
# Metric axiom validation
# ---------------------------------------------------------------------------

def find_metric_violation(
    dist: tuple[tuple[Rational, ...], ...], pairs: list[tuple[int, int] | None] | None = None
) -> MetricViolation | None:
    """Return the first metric-axiom violation of a square table, or None.

    Scan order is deterministic: diagonal entries, then symmetry and
    positivity over index pairs (i, j) with i < j, then the triangle
    inequality over triples (i, j, k) in lexicographic order.

    Symmetry, positivity and the triangle inequality are tested on the
    table's exact integer image t: every entry times the lcm L of all
    denominators (the table itself when L = 1).  A pair i < j passes the
    triangle test when t[i][j] is at most the row minimum of
    t[i][k] + t[j][k] over all k; row j stands in for column j because
    symmetry is checked first, and k = i or k = j gives exactly t[i][j].
    Any other k that does lies between i and j, so on an integral table
    (L = 1) a passing pair at distance >= 2 whose row sum hits t[i][j] only
    twice is irreducible: it is appended to `pairs`, when given, in scan
    order.  On a table that is not integral (L > 1) `pairs` gets one `None`
    instead.  A failing pair's witness is its first k on t, as in the plain
    triple loop, since scaling by L > 0 keeps every comparison.

    The first pass reads each entry once, for its denominator, and raises
    `ParseError` for one that is not exactly an `int` or a `Fraction`, before
    the row lengths are checked.  Raises `TooLarge` as soon as L, built one
    denominator at a time, or an entry of t has more than `MAX_DIGITS` digits.
    """
    denominators = set()
    for row in dist:
        for v in row:
            if type(v) is Fraction:
                denominators.add(v.denominator)
            elif type(v) is not int:
                raise ParseError(f"distance {excerpt(v)} is not an int or a Fraction; "
                                 "MetricSpace.from_rows parses decimal strings")
    n = len(dist)
    for i, row in enumerate(dist):
        if len(row) != n:
            return MetricViolation(
                "shape", (i,), f"row {i} has {len(row)} entries, expected {n}"
            )
    scale = 1
    for den in denominators:
        scale = math.lcm(scale, den)
        if scale >= _DIGIT_BOUND:
            raise TooLarge(f"the denominators' lcm has more than {MAX_DIGITS} digits")
    t = dist if scale == 1 else [
        [v.numerator * (scale // v.denominator) for v in row] for row in dist
    ]
    if max(map(abs, chain.from_iterable(t)), default=0) >= _DIGIT_BOUND:
        raise TooLarge(f"a distance times the denominators' lcm has more than {MAX_DIGITS} digits")
    for i in range(n):
        if dist[i][i] != 0:
            return MetricViolation(
                "diagonal", (i, i), f"d[{i}][{i}] = {dist[i][i]} != 0"
            )
    for i in range(n):
        for j in range(i + 1, n):
            if t[i][j] != t[j][i]:
                return MetricViolation(
                    "asymmetry", (i, j),
                    f"d[{i}][{j}] = {dist[i][j]} but d[{j}][{i}] = {dist[j][i]}",
                )
            if t[i][j] <= 0:
                return MetricViolation(
                    "nonpositive", (i, j),
                    f"d[{i}][{j}] = {dist[i][j]} must be positive for distinct points",
                )
    keep = pairs is not None and scale == 1
    if pairs is not None and not keep:
        pairs.append(None)
    for i in range(n):
        ti = t[i]
        for j in range(i + 1, n):
            sums = list(map(operator.add, ti, t[j]))
            if ti[j] <= min(sums):
                if keep and ti[j] >= 2 and sums.count(ti[j]) == 2:
                    pairs.append((i, j))  # type: ignore[union-attr]
                continue
            k = next(k for k, s in enumerate(sums) if ti[j] > s)
            return MetricViolation(
                "triangle", (i, j, k),
                f"d[{i}][{j}] = {dist[i][j]} > "
                f"{dist[i][k]} + {dist[k][j]} = d[{i}][{k}] + d[{k}][{j}]",
            )
    return None


# ---------------------------------------------------------------------------
# MetricSpace
# ---------------------------------------------------------------------------

def label_index(labels: tuple[str, ...], kind: str) -> dict[str, int]:
    """Label -> position map of a `kind` ("point" or "vertex") label list: the
    one check that each label is a nonempty `str`, before any is hashed, and distinct."""
    for lab in labels:
        if not isinstance(lab, str) or not lab:
            raise ParseError(f"{kind} labels must be nonempty strings, got {excerpt(lab)}")
    index: dict[str, int] = {}
    for i, lab in enumerate(labels):
        if index.setdefault(lab, i) != i:
            raise ParseError(f"duplicate {kind} label {excerpt(lab)}")
    return index


class _MetricFields(NamedTuple):
    labels: tuple[str, ...]
    dist: tuple[tuple[Rational, ...], ...]


class MetricSpace(_MetricFields):
    """A finite labeled point set with an exact, validated distance table.

    A `NamedTuple` whose fields cannot be rebound, safe to share between
    workers.  Use `MetricSpace.from_rows` to build one from plain lists; it
    stores every integral distance as an `int` and every other one as a
    `Fraction`, and never a float.  The constructor (`__new__`) accepts only
    `int` and `Fraction` entries (`ParseError` otherwise), validates every
    metric axiom and raises `MetricViolation` with a concrete witness on
    failure, or `TooLarge` past the `MAX_DIGITS` cap.
    """

    def __new__(cls, labels: tuple[str, ...], dist: tuple[tuple[Rational, ...], ...]) -> "MetricSpace":
        m = cls._of_metric(labels, dist)
        if len(dist) != len(labels):
            raise MetricViolation(
                "shape", (),
                f"{len(labels)} labels but {len(dist)} table rows",
            )
        pairs: list[tuple[int, int] | None] = []
        violation = find_metric_violation(dist, pairs)
        if violation is not None:
            raise violation
        m._pairs = None if pairs == [None] else tuple(pairs)  # type: ignore[attr-defined]
        return m

    @classmethod
    def _make(cls, fields) -> "MetricSpace":  # `_replace` calls this: build through `__new__`
        return cls(*fields)

    def __reduce__(self):  # pickle and copy rebuild by construction and keep `_index` and `_pairs`
        return type(self)._of_metric, tuple(self), self.__dict__

    @classmethod
    def from_rows(
        cls,
        labels: list[str] | tuple[str, ...],
        rows: list[list[Rational | str]] | tuple,
    ) -> "MetricSpace":
        dist = tuple(tuple(parse_rational(v) for v in row) for row in rows)
        return cls(tuple(labels), dist)

    @classmethod
    def _of_metric(cls, labels: tuple[str, ...], dist: tuple[tuple[Rational, ...], ...]) -> "MetricSpace":
        """A space on a table that is a metric by construction, built here for
        `__new__` too: it checks for a point, then the labels, but no axiom."""
        if len(labels) == 0:
            raise MetricViolation("shape", (), "a metric space needs at least one point")
        m = tuple.__new__(cls, (labels, dist))
        m._index = label_index(labels, "point")  # type: ignore[attr-defined]
        return m

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownLabel(f"unknown point label {excerpt(label)}") from None

    def d(self, x: str, y: str) -> Rational:
        return self.dist[self.index(x)][self.index(y)]

    def restrict(self, labels: list[str] | tuple[str, ...]) -> "MetricSpace":
        """Subspace on the given labels, in the given order.  A sub-table of
        a metric is a metric, so only the labels are checked."""
        idx = [self.index(lab) for lab in labels]
        return MetricSpace._of_metric(tuple(labels), tuple(tuple(self.dist[i][j] for j in idx) for i in idx))


# ---------------------------------------------------------------------------
# Betweenness and derived checks
# ---------------------------------------------------------------------------

def between(m: MetricSpace, x: str, y: str, z: str) -> bool:
    """Whether y lies between x and z: y differs from both endpoints and
    d(x,z) = d(x,y) + d(y,z).  x = z is permitted and always yields False."""
    ix, iy, iz = m.index(x), m.index(y), m.index(z)
    if iy == ix or iy == iz:
        return False
    return m.dist[ix][iz] == m.dist[ix][iy] + m.dist[iy][iz]


def compute_x2_set(m: MetricSpace) -> tuple[tuple[str, str], ...]:
    """The metrically irreducible pairs: distance >= 2 and no strictly
    between point, as label pairs in lexicographic order by point index.
    Each such pair receives its own subdivision path in the embedding
    construction.  Read off `m`'s validating pass; `NotIntegerMetric` when
    that pass found the table not integral."""
    if not hasattr(m, "_pairs"):
        m._pairs = MetricSpace(m.labels, m.dist)._pairs  # type: ignore[attr-defined]
    if m._pairs is None:  # type: ignore[attr-defined]
        raise NotIntegerMetric("operation requires an integer-valued metric")
    return tuple((m.labels[i], m.labels[j]) for i, j in m._pairs)  # type: ignore[attr-defined]


def kay_chartrand_check(m: MetricSpace) -> tuple[str, str] | None:
    """None when every pair at distance >= 2 has a point between it (the
    metric is then exactly the geodesic metric of the distance-1 graph),
    else the first pair of `compute_x2_set`.  Requires an integer metric."""
    return next(iter(compute_x2_set(m)), None)


def ceiling_metric(m: MetricSpace) -> MetricSpace:
    """Round every distance up to the nearest integer.

    The result is a metric, as ceil(a + b) <= ceil(a) + ceil(b), so it is
    built unscanned; `embed` reads its pairs from one validating pass, and
    `ceil_embed`'s BFS check of its host would catch a bad table anyway.
    """
    return MetricSpace._of_metric(m.labels, tuple(tuple(math.ceil(v) for v in row) for row in m.dist))


# ---------------------------------------------------------------------------
# Parsing and serialization
# ---------------------------------------------------------------------------

def parse_metric(text: str, format: str = "json") -> MetricSpace:
    """Parse a metric space from JSON or matrix text (format "json" or "text").

    JSON: ``{"points": [...], "distances": [[...], ...]}`` where entries are
    integers, exact decimal/fraction strings, or (exactly parsed) decimal
    literals.  Matrix text: first line is n, then n whitespace-separated
    rows; points are named p0..p{n-1}.

    Raises ParseError for malformed input and MetricViolation (with a
    witness) when the table is not a metric.
    """
    if format == "json":
        labels, rows = json_arrays(text, "metric", ("points", "distances"), parse_rational)
        if len(rows) != len(labels):
            raise ParseError(
                f"{len(labels)} points but {len(rows)} distance rows"
            )
        for row in rows:
            if not isinstance(row, list) or len(row) != len(labels):
                raise ParseError("distance table must be square")
        for lab in labels:
            if isinstance(lab, str) and lab.startswith(RESERVED_PREFIX):
                raise ParseError(f"label {excerpt(lab)} uses the reserved {RESERVED_PREFIX!r} prefix")
        return MetricSpace.from_rows(labels, rows)

    if format == "text":
        tokens = text.split()
        if not tokens:
            raise ParseError("empty matrix input")
        try:
            n = int(tokens[0])
        except ValueError as exc:
            raise ParseError(f"first token must be the size, got {excerpt(tokens[0])}") from exc
        if n < 1:
            raise ParseError(f"size must be >= 1, got {excerpt(n)}")
        values = tokens[1:]
        if len(values) != n * n:
            # n * n itself may pass the 4300-digit limit of int-to-str
            raise ParseError(f"size {excerpt(n)} needs size * size entries, got {len(values)}")
        labels = [f"p{i}" for i in range(n)]
        rows = [values[i * n : (i + 1) * n] for i in range(n)]
        return MetricSpace.from_rows(labels, rows)

    raise ParseError(f"unknown metric format {format!r}")


def json_arrays(text: str, kind: str, keys: tuple[str, str], parse_float=None) -> tuple[list, list]:
    """The two array fields `keys` of a `kind` JSON object, the one reader
    behind `parse_metric` and `parse_graph` (`parse_float` as in `json.loads`)."""
    try:
        doc = json.loads(text, parse_float=parse_float)
    except (ValueError, RecursionError) as exc:  # also an int literal beyond 4300 digits
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{kind} JSON must be an object")
    if any(key not in doc for key in keys):
        raise ParseError(f'{kind} JSON needs "{keys[0]}" and "{keys[1]}" keys')
    if not all(isinstance(doc[key], list) for key in keys):
        raise ParseError(f'"{keys[0]}" and "{keys[1]}" must be arrays')
    return doc[keys[0]], doc[keys[1]]


def json_text(doc: dict) -> str:
    """The one JSON encoder behind every document the package writes: sorted
    keys, `","` between items, `": "` after keys, one trailing newline.  The
    golden report sha256s pin this byte format."""
    return json.dumps(doc, sort_keys=True, separators=(",", ": ")) + "\n"


def dump_metric(m: MetricSpace, format: str = "json") -> str:
    """Serialize a metric space; output is deterministic byte-for-byte."""
    if format == "json":
        return json_text({
            "points": list(m.labels),
            "distances": [[rational_to_json(v) for v in row] for row in m.dist],
        })
    if format == "text":
        lines = [str(m.n)]
        for row in m.dist:
            lines.append(" ".join(format_rational(v) for v in row))
        return "\n".join(lines) + "\n"
    raise ParseError(f"unknown metric format {format!r}")
