"""Metric space parsing, validation, betweenness, and the ceiling transform."""

from __future__ import annotations

import ast
import pickle
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metricgraph
from metricgraph import cli
from metricgraph import (
    MetricSpace,
    MetricViolation,
    NotIntegerMetric,
    ParseError,
    TooLarge,
    UnknownLabel,
    between,
    ceiling_metric,
    compute_x2_set,
    dump_metric,
    format_rational,
    geodesic_metric,
    kay_chartrand_check,
    parse_metric,
    parse_rational,
    path_graph,
)
from metricgraph.metric import find_metric_violation

import oracles
import randgen

EGYPTIAN = MetricSpace.from_rows(["x1", "x2", "x3"], [[0, 3, 4], [3, 0, 5], [4, 5, 0]])
LINE_013 = MetricSpace.from_rows(["a", "b", "c"], [[0, 1, 3], [1, 0, 2], [3, 2, 0]])


# ---------------------------------------------------------------------------
# Rational parsing
# ---------------------------------------------------------------------------

def test_parse_rational_forms():
    assert parse_rational("2.3") == Fraction(23, 10)
    assert parse_rational("23/10") == Fraction(23, 10)
    assert parse_rational("3") == 3
    assert parse_rational(7) == 7
    assert parse_rational(Fraction(5, 2)) == Fraction(5, 2)


def test_parse_rational_stores_integral_values_as_int():
    for value in (3, "3", "3.0", "6/2", "3e0", Fraction(6, 2)):
        assert type(parse_rational(value)) is int and parse_rational(value) == 3
    for value in ("2.3", "1/2", "1e-3", Fraction(5, 2)):
        assert type(parse_rational(value)) is Fraction
    m = parse_metric('{"points": ["a", "b"], "distances": [[0, 2.0], [2.0, 0]]}')
    assert {type(v) for row in m.dist for v in row} == {int}


def test_parse_rational_rejects_floats_and_junk():
    with pytest.raises(ParseError):
        parse_rational(2.3)
    with pytest.raises(ParseError):
        parse_rational("abc")
    with pytest.raises(ParseError):
        parse_rational("1/0")
    with pytest.raises(ParseError):
        parse_rational(True)


@given(st.fractions(min_value=0, max_value=1000))
def test_format_parse_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@given(st.integers(0, 10 ** 6), st.integers(0, 6))
def test_decimal_string_round_trip(mantissa, shift):
    s = str(mantissa) if shift == 0 else f"{mantissa // 10**shift}.{mantissa % 10**shift:0{shift}d}"
    q = parse_rational(s)
    assert parse_rational(format_rational(q)) == q
    assert q == Fraction(mantissa, 10 ** shift)


# ASCII and other decimal digits, signs and spaces, and digit strings on both
# sides of Python's 4300-digit int-to-str limit.
DIGIT_TOKENS = st.one_of(
    st.text(st.sampled_from("0123456789\u0663\u06f7+- \t"), max_size=12),
    st.from_regex(r"\A0*[0-9]{1,40}\Z"),
    st.builds(lambda zeros, k: "0" * zeros + "7" * k, st.integers(0, 3), st.integers(4295, 4305)),
)


@settings(max_examples=300)
@given(DIGIT_TOKENS)
def test_digit_tokens_parse_as_through_fraction(token):
    try:
        expected = oracles.rational_by_fraction(token)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_rational(token)
        assert str(got.value) == str(exc)
    else:
        value = parse_rational(token)
        assert value == expected and type(value) is type(expected)


# ---------------------------------------------------------------------------
# Parsing and validation
# ---------------------------------------------------------------------------

def test_parse_egyptian_json():
    text = '{"points": ["x1", "x2", "x3"], "distances": [[0,3,4],[3,0,5],[4,5,0]]}'
    m = parse_metric(text)
    assert m == EGYPTIAN
    assert m.n == 3
    assert m.d("x1", "x3") == 4


def test_parse_single_point():
    m = parse_metric('{"points": ["a"], "distances": [[0]]}')
    assert m.n == 1
    assert oracles.is_integer_metric(m)
    assert kay_chartrand_check(m) is None


def test_parse_asymmetry_witness():
    with pytest.raises(MetricViolation) as exc:
        parse_metric('{"points": ["a", "b"], "distances": [[0,1],[2,0]]}')
    assert exc.value.kind == "asymmetry"
    assert exc.value.witness == (0, 1)


def test_parse_diagonal_and_zero_offdiagonal():
    with pytest.raises(MetricViolation) as exc:
        MetricSpace.from_rows(["a", "b"], [[1, 2], [2, 0]])
    assert exc.value.kind == "diagonal"
    with pytest.raises(MetricViolation) as exc:
        MetricSpace.from_rows(["a", "b"], [[0, 0], [0, 0]])
    assert exc.value.kind == "nonpositive"
    with pytest.raises(MetricViolation, match="^2 labels but 1 table rows$") as exc:
        MetricSpace(("a", "b"), ((0,),))
    assert exc.value.kind == "shape"



@pytest.mark.parametrize("entry", [0.5, 1.0, "1", True])
def test_constructor_rejects_non_exact_entries(entry):
    with pytest.raises(ParseError, match="not an int or a Fraction"):
        MetricSpace(("a", "b"), ((0, entry), (entry, 0)))
    assert MetricSpace.from_rows(["a", "b"], [[0, "1/2"], ["1/2", 0]]).d("a", "b") == Fraction(1, 2)


def test_constructor_rejects_unhashable_labels():
    with pytest.raises(ParseError, match="nonempty strings"):
        MetricSpace.from_rows([["a"]], [[0]])

def test_parse_triangle_witness():
    with pytest.raises(MetricViolation) as exc:
        MetricSpace.from_rows(["a", "b", "c"], [[0, 1, 9], [1, 0, 1], [9, 1, 0]])
    assert exc.value.kind == "triangle"
    assert exc.value.witness == (0, 2, 1)


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_metric("not json {")
    with pytest.raises(ParseError):
        parse_metric('{"points": ["a", "a"], "distances": [[0,1],[1,0]]}')
    with pytest.raises(ParseError):
        parse_metric('{"points": ["__x"], "distances": [[0]]}')
    with pytest.raises(ParseError):
        parse_metric('{"points": ["a", "b"], "distances": [[0, "x"], ["x", 0]]}')
    with pytest.raises(ParseError):
        parse_metric('{"points": ["a", "b"], "distances": [[0,1]]}')
    with pytest.raises(ParseError):
        parse_metric('{"distances": [[0]]}')


def test_deeply_nested_json_is_a_parse_error():
    """The decoder's RecursionError used to escape as a traceback."""
    deep = "[" * 200_000 + "]" * 200_000
    for text in (deep, '{"points": ' + deep + ', "distances": [[0]]}'):
        with pytest.raises(ParseError, match="recursion"):
            parse_metric(text)


def test_reserved_label_is_reported_before_the_table_is_checked():
    with pytest.raises(ParseError, match="reserved"):
        parse_metric('{"points": ["a", "__x"], "distances": [[0, 1], [2, 0]]}')
    with pytest.raises(ParseError, match="duplicate point label 'a'"):
        parse_metric('{"points": ["a", "b", "a"], "distances": [[0,1,1],[1,0,1],[1,1,0]]}')


def test_restrict_checks_labels_and_trusts_the_table(monkeypatch):
    """A sub-table of a validated metric is a metric: `restrict` runs no
    axiom scan, but still rejects an unknown, a repeated or no label."""
    m = geodesic_metric(path_graph(4))
    calls = []
    monkeypatch.setattr(metricgraph.metric, "find_metric_violation", lambda dist, space=None: calls.append(dist))
    sub = m.restrict(["v3", "v0", "v1"])
    assert (sub.labels, sub.dist) == (("v3", "v0", "v1"), ((0, 3, 2), (3, 0, 1), (2, 1, 0)))
    assert sub.d("v0", "v3") == 3
    with pytest.raises(UnknownLabel):
        m.restrict(["v0", "zz"])
    with pytest.raises(ParseError, match="duplicate point label 'v0'"):
        m.restrict(["v0", "v1", "v0"])
    with pytest.raises(MetricViolation) as exc:
        m.restrict([])
    assert exc.value.kind == "shape"
    assert calls == []


def test_only_the_label_routine_checks_labels():
    """`metric.label_index` is the one place that rejects a non-string,
    empty or repeated point or vertex label: no other function negates a
    `str` type test or words a duplicate-label message."""
    checkers = set()

    def negated_str_test(node: ast.AST) -> bool:
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            call = node.operand
            return (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "isinstance"
                    and "str" in ast.unparse(call.args[1]))
        return (isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.IsNot)
                and ast.unparse(node.left).startswith("type(")
                and ast.unparse(node.comparators[0]) == "str")

    for path in sorted(Path(metricgraph.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            nodes = list(ast.walk(fn))
            words = " ".join(n.value for n in nodes
                             if isinstance(n, ast.Constant) and isinstance(n.value, str))
            if any(map(negated_str_test, nodes)) or "duplicate" in words and "label" in words:
                checkers.add((path.name, fn.name))
    assert checkers == {("metric.py", "label_index")}


def test_digit_cap_on_exact_values():
    for text in ("1e2001", "1E-2001", "3e+2001"):
        with pytest.raises(TooLarge, match="exponent"):
            parse_rational(text)
    assert parse_rational("1e-2000") == Fraction(1, 10 ** 2000)
    with pytest.raises(TooLarge, match="exponent"):  # a JSON number literal takes the same route
        parse_metric('{"points": ["a", "b"], "distances": [[0, 1e2001], [1e2001, 0]]}')
    for big in (10 ** 2000, -10 ** 2000, Fraction(1, 10 ** 2000), Fraction(1, 10 ** 2001 + 1)):
        with pytest.raises(TooLarge):
            MetricSpace(("a", "b"), ((0, big), (big, 0)))
    for edge in (10 ** 2000 - 1, Fraction(10 ** 2000 - 1, 10 ** 2000 - 3)):
        assert MetricSpace(("a", "b"), ((0, edge), (edge, 0))).d("a", "b") == edge


def test_lcm_of_many_long_denominators_stops_at_the_cap():
    """496 distinct 1000-digit denominators: L passes the cap after the
    third one, long before the full lcm or the scaled table is built."""
    rng = random.Random(5)
    n = 32
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q = rng.randrange(10 ** 999, 10 ** 1000)
            rows[i][j] = rows[j][i] = Fraction(q + 1, q)
    start = time.perf_counter()
    with pytest.raises(TooLarge):
        MetricSpace(tuple(f"p{i}" for i in range(n)), tuple(map(tuple, rows)))
    assert time.perf_counter() - start < 1.0


def test_parse_exact_decimal_number_literal():
    # a JSON 2.3 literal is parsed from its text, never through a float
    m = parse_metric('{"points": ["a", "b"], "distances": [[0, 2.3], [2.3, 0]]}')
    assert m.d("a", "b") == Fraction(23, 10)


def test_parse_matrix_format():
    m = parse_metric("3\n0 3 4\n3 0 5\n4 5 0\n", format="text")
    assert m.labels == ("p0", "p1", "p2")
    assert m.dist == EGYPTIAN.dist
    with pytest.raises(ParseError):
        parse_metric("2\n0 1\n1\n", format="text")
    with pytest.raises(ParseError):
        parse_metric("x\n", format="text")


def test_dump_round_trips():
    for m in (EGYPTIAN, LINE_013):
        assert parse_metric(dump_metric(m, "json")) == m
    m = parse_metric("2\n0 5/2\n5/2 0", format="text")
    assert parse_metric(dump_metric(m, "text"), format="text") == m


_USER_LABEL = st.text(min_size=1, max_size=4).filter(lambda lab: not lab.startswith("__"))


@st.composite
def metrics(draw, format: str) -> MetricSpace:
    """Rational metrics with every distance in [b, 2b], so any table is a
    metric; matrix text names its points p0.., JSON keeps any user label."""
    n = draw(st.integers(1, 6))
    base = draw(st.fractions(Fraction(1, 100), 100, max_denominator=100))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            stretch = draw(st.fractions(0, 1, max_denominator=12))
            rows[i][j] = rows[j][i] = base * (1 + stretch)
    if format == "text":
        labels = [f"p{i}" for i in range(n)]
    else:
        labels = draw(st.lists(_USER_LABEL, min_size=n, max_size=n, unique=True))
    return MetricSpace.from_rows(labels, rows)


@settings(max_examples=80)
@given(st.data(), st.sampled_from(["json", "text"]))
def test_parse_inverts_dump(data, format):
    m = data.draw(metrics(format))
    assert parse_metric(dump_metric(m, format), format) == m


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32))
def test_validation_witness_reproduces(seed):
    """Break one axiom of a random valid metric; the reported witness must
    re-trigger the same violation when checked directly."""
    rng = random.Random(seed)
    m = randgen.random_subset_metric(rng, 5)
    rows = [list(row) for row in m.dist]
    n = len(rows)
    kind = rng.choice(["diagonal", "asymmetry", "nonpositive", "triangle"] if n > 2 else ["diagonal", "asymmetry", "nonpositive"])
    if kind == "diagonal":
        i = rng.randrange(n)
        rows[i][i] = Fraction(1)
    elif kind == "asymmetry":
        i, j = rng.sample(range(n), 2)
        rows[i][j] = rows[i][j] + 1
    elif kind == "nonpositive":
        i, j = sorted(rng.sample(range(n), 2))
        rows[i][j] = rows[j][i] = Fraction(0)
    else:
        i, j = sorted(rng.sample(range(n), 2))
        rows[i][j] = rows[j][i] = rows[i][j] * 10 + 5
    table = tuple(tuple(row) for row in rows)
    violation = find_metric_violation(table)
    assert violation is not None
    assert oracles.violation_reproduces(table, violation)


def _assert_same_first_violation(table) -> MetricViolation | None:
    got = find_metric_violation(table)
    want = oracles.brute_first_violation(table)
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert (got.kind, got.witness, str(got)) == (want.kind, want.witness, str(want))
    return want


def test_scan_matches_brute_scan_on_random_mixed_tables():
    """Tables mixing int and Fraction entries, a few of them asymmetric;
    about half are not metrics, so first witnesses are compared often."""
    rng = random.Random(5)
    values = [1, 2, 3, Fraction(1, 2), Fraction(3, 2), Fraction(5, 3), Fraction(7, 4)]
    kinds = set()
    for _ in range(400):
        n = rng.randint(1, 7)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = rng.choice(values)
                if rng.random() < 0.03:
                    rows[j][i] = rng.choice(values)
        violation = _assert_same_first_violation(tuple(tuple(row) for row in rows))
        kinds.add(None if violation is None else violation.kind)
    assert kinds == {None, "asymmetry", "triangle"}


def test_scan_matches_brute_scan_on_planted_violations():
    """One to three planted faults of every kind in valid int and rational
    metrics: the first one in scan order must win, with the same message."""
    rng = random.Random(11)
    kinds = set()
    for _ in range(300):
        m = (randgen.random_subset_metric(rng, 7) if rng.random() < 0.5
             else randgen.random_decimal_metric(rng, 7))
        rows = [list(row) for row in m.dist]
        n = len(rows)
        for _ in range(rng.randint(1, 3)):
            i, j = rng.sample(range(n), 2)
            kind = rng.choice(["diagonal", "asymmetry", "nonpositive", "triangle"])
            if kind == "diagonal":
                rows[i][i] = rng.choice([1, Fraction(1, 3)])
            elif kind == "asymmetry":
                rows[i][j] = rows[i][j] + Fraction(1, 7)
            elif kind == "nonpositive":
                rows[i][j] = rows[j][i] = rng.choice([0, -1, Fraction(-1, 2)])
            else:
                rows[i][j] = rows[j][i] = rows[i][j] * 3 + Fraction(1, 9)
        if rng.random() < 0.2:
            rows[rng.randrange(n)].pop()
        violation = _assert_same_first_violation(tuple(tuple(row) for row in rows))
        kinds.add(None if violation is None else violation.kind)
    assert kinds >= {"shape", "diagonal", "asymmetry", "nonpositive", "triangle"}
    # The only thirds entry faces a zero: an asymmetry, whatever the scale.
    half = Fraction(1, 2)
    table = ((0, Fraction(5, 3), half), (0, 0, half), (half, half, 0))
    assert _assert_same_first_violation(table).kind == "asymmetry"


def test_scan_matches_brute_scan_with_many_prime_denominators():
    """Every entry has its own prime denominator, so the integer image is
    scaled by a product of 91 primes; a tight pair stays valid and one
    larger by 10^-30 is caught at the same witness."""
    primes = [p for p in range(2, 600) if all(p % q for q in range(2, p))][:91]
    n = 14
    rows = [[0] * n for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), p in zip(pairs, primes):
        rows[i][j] = rows[j][i] = 1 + Fraction(1, p)
    table = tuple(tuple(row) for row in rows)
    assert _assert_same_first_violation(table) is None

    tight = min(rows[3][k] + rows[k][8] for k in range(n) if k not in (3, 8))
    rows[3][8] = rows[8][3] = tight
    assert _assert_same_first_violation(tuple(tuple(row) for row in rows)) is None
    rows[3][8] = rows[8][3] = tight + Fraction(1, 10 ** 30)
    violation = _assert_same_first_violation(tuple(tuple(row) for row in rows))
    assert violation is not None and violation.witness[:2] == (3, 8)


# ---------------------------------------------------------------------------
# Integer check and betweenness
# ---------------------------------------------------------------------------

def test_is_integer_metric():
    """`NotIntegerMetric` is raised exactly where the integrality oracle says
    no, a `Fraction`-typed integral table included."""
    for m, integral in ((EGYPTIAN, True), (MetricSpace.from_rows(["a"], [[0]]), True),
                        (MetricSpace.from_rows(["a", "b"], [[0, "5/2"], ["5/2", 0]]), False),
                        (MetricSpace(("a", "b"), ((0, Fraction(4, 2)), (Fraction(4, 2), 0))), True)):
        assert oracles.is_integer_metric(m) is integral
        if integral:
            assert kay_chartrand_check(m) == next(iter(compute_x2_set(m)), None)
        else:
            with pytest.raises(NotIntegerMetric):
                compute_x2_set(m)


def test_between_line_metric():
    assert between(LINE_013, "a", "b", "c")
    assert not between(LINE_013, "a", "c", "b")
    assert between(LINE_013, "c", "b", "a")


def test_between_egyptian():
    assert not between(EGYPTIAN, "x1", "x2", "x3")


def test_between_degenerate():
    # same endpoints with a distinct middle point is permitted and False
    assert not between(LINE_013, "a", "b", "a")
    assert not between(LINE_013, "a", "a", "b")
    with pytest.raises(UnknownLabel):
        between(LINE_013, "a", "zz", "b")


@settings(max_examples=40)
@given(st.integers(0, 2 ** 32))
def test_between_symmetry(seed):
    rng = random.Random(seed)
    m = randgen.random_subset_metric(rng, 6)
    for x in m.labels:
        for y in m.labels:
            for z in m.labels:
                assert between(m, x, y, z) == between(m, z, y, x)


# ---------------------------------------------------------------------------
# Kay-Chartrand condition and irreducible pairs
# ---------------------------------------------------------------------------

def test_kay_chartrand_examples():
    assert kay_chartrand_check(geodesic_metric(path_graph(4))) is None
    assert kay_chartrand_check(
        MetricSpace.from_rows(["a", "b"], [[0, 2], [2, 0]])
    ) == ("a", "b")
    assert kay_chartrand_check(EGYPTIAN) == ("x1", "x2")
    with pytest.raises(NotIntegerMetric):
        kay_chartrand_check(MetricSpace.from_rows(["a", "b"], [[0, "1/2"], ["1/2", 0]]))


def test_x2_examples():
    assert list(compute_x2_set(EGYPTIAN)) == [("x1", "x2"), ("x1", "x3"), ("x2", "x3")]
    assert len(compute_x2_set(geodesic_metric(path_graph(4)))) == 0
    assert len(compute_x2_set(MetricSpace.from_rows(["a", "b"], [[0, 1], [1, 0]]))) == 0
    x2 = compute_x2_set(MetricSpace.from_rows(["a", "b"], [[0, 2], [2, 0]]))
    assert x2 == (("a", "b"),)
    # The validating pass's own record, by index: n = 2 at distance 1 and
    # 2; a pair at 2 whose only between point is a third point, next to
    # an irreducible pair at 2; and a table that is not integral.
    assert MetricSpace.from_rows(["a", "b"], [[0, 1], [1, 0]])._pairs == ()
    assert MetricSpace.from_rows(["a", "b"], [[0, 2], [2, 0]])._pairs == ((0, 1),)
    assert MetricSpace.from_rows(["a", "b", "c"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]])._pairs == ()
    assert MetricSpace.from_rows(["a", "b", "c"], [[0, 2, 2], [2, 0, 2], [2, 2, 0]])._pairs == (
        (0, 1), (0, 2), (1, 2))
    assert MetricSpace.from_rows(["a", "b"], [[0, "1/2"], ["1/2", 0]])._pairs is None


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32))
def test_x2_matches_kay_chartrand(seed):
    """The Kay-Chartrand witness is the first irreducible pair, or None when
    there is none; both agree with the direct betweenness oracle, on pairs
    kept by `MetricSpace(...)`'s validation and on pairs found later for a
    space built by construction (`restrict`, `ceiling_metric`), before and
    after a pickle round trip.  `NotIntegerMetric` is raised exactly when
    the integrality oracle says no: `m` plus a point at a half-integer
    distance is not integral, its restriction to `m`'s points is (it does
    not inherit its parent's answer), and to a pair with that point is not."""
    rng = random.Random(seed)
    m = (randgen.random_subset_metric(rng, 6) if rng.random() < 0.6
         else randgen.random_int_metric_rejection(rng, rng.randint(2, 5)))
    far = max(map(max, m.dist)) + Fraction(1, 2)
    decimal = MetricSpace((*m.labels, "far"), tuple((*row, far) for row in m.dist) + ((*[far] * m.n, 0),))
    spaces = [m, m.restrict(m.labels), ceiling_metric(randgen.random_decimal_metric(rng, 6)),
              decimal, decimal.restrict(m.labels), decimal.restrict([m.labels[-1], "far"])]
    for space in spaces[:2]:
        compute_x2_set(space)  # the pickles below carry the pairs found
        spaces += [pickle.loads(pickle.dumps(space, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    assert [oracles.is_integer_metric(space) for space in spaces[3:6]] == [False, True, False]
    for space in spaces:
        if not oracles.is_integer_metric(space):
            for answer in (compute_x2_set, kay_chartrand_check):
                with pytest.raises(NotIntegerMetric):
                    answer(space)
            continue
        x2 = compute_x2_set(space)
        expected = [
            (space.labels[i], space.labels[j])
            for i in range(space.n)
            for j in range(i + 1, space.n)
            if space.dist[i][j] >= 2 and not oracles.has_between_point(space, i, j)
        ]
        assert list(x2) == expected
        assert kay_chartrand_check(space) == next(iter(expected), None)


def test_the_validating_pass_runs_once_per_space(tmp_path, monkeypatch):
    """`MetricSpace(...)` keeps the irreducible pairs its validation found,
    and a space built by construction gets them from one more run of that
    pass; so each CLI construction validates its input once, and
    `ceil-embed` its ceiling table once more."""
    calls = []
    validate = metricgraph.metric.find_metric_violation
    monkeypatch.setattr(metricgraph.metric, "find_metric_violation",
                        lambda *args: calls.append(args) or validate(*args))
    m = MetricSpace.from_rows(EGYPTIAN.labels, EGYPTIAN.dist)
    assert len(calls) == 1
    for space, runs in ((m, 0), (m.restrict(["x3", "x1"]), 1), (geodesic_metric(path_graph(5)), 1)):
        calls.clear()
        x2 = compute_x2_set(space)
        assert compute_x2_set(space) == x2 and kay_chartrand_check(space) == next(iter(x2), None)
        assert len(calls) == runs
    egy, path = tmp_path / "egy.json", tmp_path / "path.json"
    egy.write_text(dump_metric(EGYPTIAN))
    path.write_text(dump_metric(geodesic_metric(path_graph(4))))
    decimal = tmp_path / "decimal.json"
    decimal.write_text('{"points": ["a", "b", "c"], '
                       '"distances": [[0, "1.5", "2.5"], ["1.5", 0, "1.25"], ["2.5", "1.25", 0]]}')
    for command, file, code, runs in (("validate", egy, 1, 1), ("validate", decimal, 1, 1), ("embed", egy, 0, 1),
                                      ("realize", path, 0, 1), ("realize", egy, 1, 1), ("ceil-embed", decimal, 0, 2)):
        calls.clear()
        assert cli.main([command, str(file)]) == code
        assert len(calls) == runs, command


def test_x2_builds_no_second_space(monkeypatch):
    """On a space built by construction, `compute_x2_set` runs the
    validating pass on that space itself: one pass, and no second label
    check for a throwaway `MetricSpace`."""
    passes, label_checks = [], []
    validate, label_index = metricgraph.metric.find_metric_violation, metricgraph.metric.label_index
    monkeypatch.setattr(metricgraph.metric, "find_metric_violation",
                        lambda *args: passes.append(args) or validate(*args))
    monkeypatch.setattr(metricgraph.metric, "label_index",
                        lambda *args: label_checks.append(args) or label_index(*args))
    for space in (EGYPTIAN.restrict(["x3", "x1"]), geodesic_metric(path_graph(5))):
        passes.clear()
        label_checks.clear()
        x2 = compute_x2_set(space)
        assert compute_x2_set(space) == x2 and kay_chartrand_check(space) == next(iter(x2), None)
        assert (len(passes), len(label_checks)) == (1, 0)
        assert passes[0][1] is space


class _CountingRow(tuple):
    """A distance row that counts every read of its entries."""
    reads = 0

    def __iter__(self):
        _CountingRow.reads += 1
        return super().__iter__()

    def __getitem__(self, key):
        _CountingRow.reads += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("rows, x2", [(EGYPTIAN.dist, (("x1", "x2"), ("x1", "x3"), ("x2", "x3"))),
                                      (((0, Fraction(5, 2)), (Fraction(5, 2), 0)), None)],
                         ids=["integral", "not_integral"])
def test_x2_reads_no_row_after_construction(rows, x2):
    """Integrality and the irreducible pairs are decided by the validating
    pass alone: once a space is built, `compute_x2_set` and
    `kay_chartrand_check` read none of its rows, whether they answer pairs or
    raise `NotIntegerMetric` (x2 None)."""
    m = MetricSpace(EGYPTIAN.labels[:len(rows)], tuple(map(_CountingRow, rows)))
    _CountingRow.reads = 0
    if x2 is None:
        for answer in (compute_x2_set, kay_chartrand_check):
            with pytest.raises(NotIntegerMetric):
                answer(m)
    else:
        assert compute_x2_set(m) == x2 and kay_chartrand_check(m) == x2[0]
    assert _CountingRow.reads == 0


# ---------------------------------------------------------------------------
# Ceiling transform
# ---------------------------------------------------------------------------

def test_ceiling_examples():
    m = MetricSpace.from_rows(["a", "b"], [[0, "2.3"], ["2.3", 0]])
    assert ceiling_metric(m).d("a", "b") == 3
    assert ceiling_metric(EGYPTIAN) == EGYPTIAN


@settings(max_examples=60)
@given(st.integers(0, 2 ** 32))
def test_ceiling_idempotent_and_dominates(seed):
    rng = random.Random(seed)
    m = randgen.random_decimal_metric(rng, 5)
    c = ceiling_metric(m)
    assert oracles.is_integer_metric(c)
    assert {type(v) for row in c.dist for v in row} == {int}
    assert ceiling_metric(c) == c
    assert find_metric_violation(c.dist) is None  # built unvalidated: the theorem stays checked
    for i in range(m.n):
        for j in range(m.n):
            assert m.dist[i][j] <= c.dist[i][j] < m.dist[i][j] + 1
