"""Expression language: parsing, evaluation, printing."""

import copy
import itertools
import math
import pickle
import sys
import time
from fractions import Fraction
from operator import add, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interpbisect import numerics
from interpbisect.funcdsl import _compile_exact
from interpbisect.verifier import _compile_grid, grid_oracle
from interpbisect import (
    Abs,
    Add,
    Div,
    EvalError,
    Max,
    Min,
    Mul,
    Neg,
    ParseError,
    Pow,
    RationalConst,
    Sub,
    Var,
    eval_exact,
    eval_float,
    format_rational,
    parse,
    parse_rational,
    to_text,
)
from reference import SAMPLE_TEXT, WalkDivisionByZero, walk_eval
from strategies import eval_trees

F = Fraction
X = Var()


def C(*args) -> RationalConst:
    return RationalConst(F(*args))


# CPython's cap on int <-> decimal text conversion (4,300 digits by
# default; interpreters that predate the cap have none).
TEXT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
LONG = 10 ** (TEXT_DIGIT_LIMIT + 100)


ATOM_STARTERS = {"'x'", "a number", "'('", "'min'", "'max'", "'abs'"}

SAMPLE_TREE = Min(
    Div(Add(C(1), Mul(C(6), Pow(X, 2))), C(7)),
    Add(C(8), Mul(C(9), X)),
)


class TestParse:
    def test_sample_function_structure(self):
        assert parse(SAMPLE_TEXT) == SAMPLE_TREE

    def test_implicit_multiplication(self):
        assert parse("6x^2") == parse("6*x^2") == Mul(C(6), Pow(X, 2))
        assert parse("0.5x") == Mul(C(1, 2), X)
        assert parse("x x") == Mul(X, X)
        assert parse("2(x+1)") == Mul(C(2), Add(X, C(1)))

    def test_decimals_are_exact(self):
        assert parse("0.25") == C(1, 4)
        assert parse("0.1") == C(1, 10)

    def test_ratio_literals(self):
        assert parse("3/4") == C(3, 4)
        assert parse("1/3") == C(1, 3)
        assert parse("6*1/2") == Mul(C(6), C(1, 2))

    def test_ratio_does_not_swallow_power(self):
        assert parse("3/4^2") == Div(C(3), Pow(C(4), 2))
        assert parse("(3/4)^2") == Pow(C(3, 4), 2)

    def test_ratio_never_right_of_division(self):
        assert parse("x/2/3") == Div(Div(X, C(2)), C(3))
        assert eval_exact(parse("x/2/3"), F(6)) == F(1)
        assert parse("1/2/3") == Div(C(1, 2), C(3))

    def test_zero_denominator_is_division_not_literal(self):
        assert parse("3/0") == Div(C(3), C(0))

    def test_precedence_and_associativity(self):
        assert parse("1+2*x") == Add(C(1), Mul(C(2), X))
        assert parse("1-2-x") == Sub(Sub(C(1), C(2)), X)
        assert parse("-x^2") == Neg(Pow(X, 2))
        assert parse("(-x)^2") == Pow(Neg(X), 2)
        assert parse("2^0") == Pow(C(2), 0)

    def test_calls(self):
        assert parse("min( x , 1 )") == Min(X, C(1))
        assert parse("max(x, -x)") == Max(X, Neg(X))
        assert parse("abs(-x)") == Abs(Neg(X))

    def test_negation_nests(self):
        assert parse("-(-x)") == Neg(Neg(X))
        assert parse("-5") == Neg(C(5))

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("min(", 4),
            ("((x)", 4),
            ("x^-1", 2),
            ("y", 0),
            ("1 +", 3),
            ("", 0),
            ("(x,)", 2),
        ],
    )
    def test_errors_carry_offsets(self, text, offset):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset
        assert err.value.expected  # non-empty set of legal tokens

    def test_error_reports_found_token(self):
        with pytest.raises(ParseError) as err:
            parse("min(")
        assert err.value.found == "end of input"
        assert any("x" in e for e in err.value.expected)

    def test_lexer_rejects_strange_bytes(self):
        with pytest.raises(ParseError) as err:
            parse("3 $ x")
        assert err.value.offset == 2

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as err:
            parse("x)")
        assert err.value.offset == 1

    @pytest.mark.parametrize(
        "text,outcome",
        [
            ("3 $ x", (2, {"a token"}, "'$'")),
            ("x)", (1, {"'+'", "'-'", "'*'", "'/'", "end of input"}, "')'")),
            ("min(x", (5, {"','"}, "end of input")),
            ("min(x,", (6, ATOM_STARTERS, "end of input")),
            ("abs(", (4, ATOM_STARTERS, "end of input")),
            ("abs x", (4, {"'('"}, "'x'")),
            ("y", (0, ATOM_STARTERS, "'y'")),
            ("x^", (2, {"a non-negative integer exponent"}, "end of input")),
            ("x^1.5", (2, {"a non-negative integer exponent"}, "'1.5'")),
            ("3/", (2, ATOM_STARTERS, "end of input")),
            ("(x,)", (2, {"')'"}, "','")),
            ("", (0, ATOM_STARTERS, "end of input")),
            ("\u0663x", Mul(C(3), X)),  # ARABIC-INDIC DIGIT THREE
            ("\tx\n+ 1", Add(X, C(1))),
            ("x\n\t", X),
            ("3/4^2", Div(C(3), Pow(C(4), 2))),
            (".5x", Mul(C(1, 2), X)),
        ],
    )
    def test_error_triple_or_tree(self, text, outcome):
        if not isinstance(outcome, tuple):
            assert parse(text) == outcome
            return
        with pytest.raises(ParseError) as err:
            parse(text)
        offset, expected, found = outcome
        assert (err.value.offset, err.value.expected, err.value.found) == (
            offset, frozenset(expected), found
        )


class TestNodeValidation:
    def test_pow_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            Pow(X, -1)

    def test_pow_rejects_non_int_exponent(self):
        with pytest.raises(ValueError):
            Pow(X, 2.0)
        with pytest.raises(ValueError):
            Pow(X, True)


class TestEvalExact:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (F(0), F(1, 7)),
            (F(-2, 7), F(73, 343)),
            (F(-3, 7), F(103, 343)),
            (F(-8, 9), F(0)),
            (F(1), F(1)),
            (F(-1), F(-1)),
        ],
    )
    def test_sample_function_values(self, x, expected):
        assert eval_exact(SAMPLE_TREE, x) == expected

    def test_division_by_zero_carries_location(self):
        expr = parse("1/(x-1)")
        with pytest.raises(EvalError) as err:
            eval_exact(expr, F(1))
        assert err.value.x == F(1)
        assert err.value.path[-1] == "Div"
        assert eval_exact(expr, F(2)) == F(1)

    def test_division_by_zero_message(self):
        with pytest.raises(EvalError) as err:
            eval_exact(parse("1/(3x-1)"), F(1, 3))
        assert str(err.value) == "division by zero at x = 1/3 in node Div"

    def test_division_by_zero_at_a_point_past_the_digit_limit(self):
        x = F(10**5000 + 1, 3)
        with pytest.raises(EvalError) as err:
            eval_exact(parse("1/(x-x)"), x)
        assert err.value.x == x
        assert str(err.value) == f"division by zero at x = {format_rational(x)} in node Div"

    def test_abs_and_pow(self):
        assert eval_exact(parse("abs(x^3)"), F(-2)) == F(8)
        assert eval_exact(parse("x^0"), F(5)) == F(1)


# Powers, nested and not, with plain Fraction arithmetic as the oracle.
POW_CASES = [(f"x^{k}", lambda x, k=k: x**k) for k in range(7)] + [
    ("(x^2 + 1)^3 / x^2", lambda x: (x**2 + 1) ** 3 / x**2),
    ("((x - 1/3)^2)^3", lambda x: ((x - F(1, 3)) ** 2) ** 3),
    ("-(x^3 - x/5)^2 + abs(x)^5", lambda x: -((x**3 - x / 5) ** 2) + abs(x) ** 5),
    ("1/(x^2 + 1)^4", lambda x: 1 / (x**2 + 1) ** 4),
    ("min(x^4, (x + 1/2)^2)^3", lambda x: min(x**4, (x + F(1, 2)) ** 2) ** 3),
]


class TestDyadicPow:
    """``Pow`` shifts a denominator's power of two instead of raising it."""

    # Twos in x's denominator: both sides of the sums' 64-twos cut-over,
    # and far past it.
    @pytest.mark.parametrize("e", [0, 1, 64, 65, 300])
    @pytest.mark.parametrize("text,oracle", POW_CASES, ids=[t for t, _ in POW_CASES])
    @given(m=st.integers(-(1 << 400), 1 << 400).filter(bool), q=st.integers(0, 1 << 40))
    @settings(max_examples=25, deadline=None)
    def test_matches_fraction_arithmetic(self, e, text, oracle, m, q):
        x = F(m, (2 * q + 1) << e)
        assert eval_exact(parse(text), x) == oracle(x)

    @pytest.mark.parametrize(
        "text,path",
        [
            ("(1/(x - 5/(3*2^300)))^3", ("Pow", "Div")),
            ("(x + (1/(x - 5/(3*2^300)))^3)^2 / x^2", ("Div[0]", "Pow", "Add[1]", "Pow", "Div")),
            # The zero divisor is a difference of two shifted powers.
            ("1/(x^3 - 125/(27*2^900))", ("Div",)),
        ],
    )
    def test_error_under_a_pow_keeps_x_and_path(self, text, path):
        x = F(5, 3 << 300)
        with pytest.raises(EvalError) as err:
            eval_exact(parse(text), x)
        assert (err.value.x, err.value.path) == (x, path)


class TestEvalFloat:
    def test_basics(self):
        assert eval_float(parse("x"), 0.5) == 0.5
        assert eval_float(parse("abs(x)"), -3.0) == 3.0
        assert eval_float(SAMPLE_TREE, 0.0) == pytest.approx(1 / 7)

    def test_constants_round_once(self):
        assert eval_float(parse("1/3"), 0.0) == float(F(1, 3))

    def test_division_by_zero_raises(self):
        with pytest.raises(EvalError):
            eval_float(parse("1/x"), 0.0)

    def test_pow_overflow_goes_to_inf(self):
        assert eval_float(parse("x^3"), 1e200) == math.inf
        assert eval_float(parse("x^3"), -1e200) == -math.inf
        assert eval_float(parse("x^4"), -1e200) == math.inf


# ---------------------------------------------------------------------------
# Printer

def _is_plain_ratio_div(node) -> bool:
    # Div(int const, positive int const) prints as 'p/q', which reparses
    # as a single constant; the canonical-tree strategy avoids the shape.
    return (
        isinstance(node, Div)
        and isinstance(node.left, RationalConst)
        and node.left.value.denominator == 1
        and isinstance(node.right, RationalConst)
        and node.right.value.denominator == 1
        and node.right.value > 0
    )


_consts = st.fractions(min_value=0, max_value=100, max_denominator=50).map(RationalConst)
_leaves = st.one_of(st.just(X), _consts)


def _compound(children):
    return st.one_of(
        st.builds(Neg, children),
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Div, children, children).filter(lambda d: not _is_plain_ratio_div(d)),
        st.builds(Pow, children, st.integers(min_value=0, max_value=4)),
        st.builds(Min, children, children),
        st.builds(Max, children, children),
        st.builds(Abs, children),
    )


_canonical_trees = st.recursive(_leaves, _compound, max_leaves=25)

# Division-free trees evaluate totally at every rational point.
_total_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.builds(Neg, children),
        st.builds(Add, children, children),
        st.builds(Sub, children, children),
        st.builds(Mul, children, children),
        st.builds(Pow, children, st.integers(min_value=0, max_value=3)),
        st.builds(Min, children, children),
        st.builds(Max, children, children),
        st.builds(Abs, children),
    ),
    max_leaves=16,
)

_points = st.fractions(min_value=-20, max_value=20, max_denominator=40)


class TestPrinter:
    def test_sample_canonical_text(self):
        assert to_text(parse(SAMPLE_TEXT)) == "min((1+6*x^2)/7, 8+9*x)"

    @pytest.mark.parametrize(
        "tree,text",
        [
            (Pow(C(3, 4), 2), "(3/4)^2"),
            (Neg(Neg(X)), "-(-x)"),
            (Sub(X, Neg(X)), "x-(-x)"),
            (Mul(X, Div(X, C(2))), "x*(x/2)"),
            (Add(X, Add(X, X)), "x+(x+x)"),
            (Div(C(3), Pow(C(4), 2)), "3/4^2"),
            (Mul(C(1, 2), X), "1/2*x"),
            (Div(Mul(X, C(3)), C(4)), "(x*3)/4"),
            (Div(Neg(C(3)), C(4)), "(-3)/4"),
            (Div(Mul(X, C(3)), Pow(C(4), 2)), "x*3/4^2"),
            (Div(Neg(X), C(4)), "-x/4"),
        ],
    )
    def test_parenthesization(self, tree, text):
        assert to_text(tree) == text
        assert parse(text) == tree

    @given(_canonical_trees)
    @settings(max_examples=300)
    def test_round_trip_is_structural(self, tree):
        assert parse(to_text(tree)) == tree

    @pytest.mark.digit_limit
    @pytest.mark.parametrize(
        "tree",
        [C(LONG + 1, 3), C(LONG), Sub(X, C(LONG)), Pow(C(7, LONG), 2), Div(X, C(LONG)), Mul(C(LONG - 1, 2), X)],
    )
    def test_constants_past_the_digit_limit_round_trip(self, tree):
        assert parse(to_text(tree)) == tree

    @pytest.mark.digit_limit
    @pytest.mark.parametrize(
        "text",
        ["1" * 5001, "3/" + "7" * 5001, "12." + "5" * 5001, "." + "5" * 5001],
        ids=["integer", "ratio", "decimal", "fraction-part"],
    )
    def test_literals_past_the_digit_limit_read_as_flags_do(self, text):
        assert parse(text) == RationalConst(parse_rational(text))
        assert parse(f"-{text}") == Neg(RationalConst(parse_rational(text)))

    def test_unspellable_trees_reparse_to_equal_value(self):
        handmade = Div(C(1), C(2))
        again = parse(to_text(handmade))
        assert again != handmade
        assert again == C(1, 2)

        negative = RationalConst(F(-3))
        again = parse(to_text(negative))
        assert again == Neg(C(3))
        assert eval_exact(again, F(0)) == eval_exact(negative, F(0))


# ---------------------------------------------------------------------------
# Semantic properties

def _magnitude(expr, x: Fraction) -> Fraction:
    """Upper bound on every intermediate |value| during evaluation."""
    if isinstance(expr, Var):
        return abs(x)
    if isinstance(expr, RationalConst):
        return abs(expr.value)
    if isinstance(expr, (Neg, Abs)):
        return _magnitude(expr.operand, x)
    if isinstance(expr, (Add, Sub)):
        return _magnitude(expr.left, x) + _magnitude(expr.right, x)
    if isinstance(expr, Mul):
        return _magnitude(expr.left, x) * _magnitude(expr.right, x)
    if isinstance(expr, Pow):
        return max(_magnitude(expr.base, x), F(1)) ** expr.exponent
    if isinstance(expr, (Min, Max)):
        return max(_magnitude(expr.left, x), _magnitude(expr.right, x))
    raise TypeError(expr)


class TestSemantics:
    @given(_total_trees, _total_trees, _points)
    @settings(max_examples=200)
    def test_min_max_lattice(self, e1, e2, x):
        lo = eval_exact(Min(e1, e2), x)
        hi = eval_exact(Max(e1, e2), x)
        v1, v2 = eval_exact(e1, x), eval_exact(e2, x)
        assert lo == min(v1, v2)
        assert hi == max(v1, v2)
        assert lo + hi == v1 + v2

    @given(_total_trees, _total_trees, _points)
    @settings(max_examples=200)
    def test_min_via_abs_identity(self, e1, e2, x):
        # min(u, v) == (u + v - |u - v|) / 2, composed inside the language
        composed = Div(Sub(Add(e1, e2), Abs(Sub(e1, e2))), C(2))
        assert eval_exact(composed, x) == eval_exact(Min(e1, e2), x)

    @given(_total_trees, _points)
    @settings(max_examples=200)
    def test_float_tracks_exact_within_conditioning(self, expr, x):
        exact = eval_exact(expr, x)
        approx = eval_float(expr, float(x))
        bound = _magnitude(expr, x)
        if bound > F(10) ** 40:  # beyond this the crude bound is all noise
            return
        assert abs(approx - float(exact)) <= 1e-12 * max(1.0, float(bound))

    def test_eval_float_matches_exact_on_sample_grid(self):
        expr = parse(SAMPLE_TEXT)
        for k in range(-20, 21):
            x = F(k, 20)
            assert eval_float(expr, float(x)) == pytest.approx(
                float(eval_exact(expr, x)), abs=1e-13
            )


# ---------------------------------------------------------------------------
# Compiled evaluators against a plain tree walk (tests/reference.py)

_big_ints = st.integers(min_value=1, max_value=2**2500)
# u / (2^k q) with q odd, like the iteration's midpoints: random big
# denominators almost never carry more than a few twos.
_dyadic_points = st.builds(
    lambda u, k, q, neg: F(-u if neg else u, q << k),
    st.integers(min_value=0, max_value=2**1200),
    st.sampled_from([0, 1, 63, 64, 65, 200, 1000]),
    st.integers(min_value=0, max_value=2**64).map(lambda v: 2 * v + 1),
    st.booleans(),
)
_exact_points = st.one_of(
    st.just(F(0)),
    st.fractions(min_value=-20, max_value=20, max_denominator=40),
    st.builds(lambda n, d, neg: F(-n if neg else n, d), _big_ints, _big_ints, st.booleans()),
    _dyadic_points,
)
_float_points = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(allow_nan=False),
    st.floats(min_value=-4, max_value=4),
)


def _outcome(evaluate, *args):
    try:
        return evaluate(*args), None
    except (EvalError, WalkDivisionByZero) as exc:
        return None, (exc.x, exc.path)


def _same_float(u: float, v: float) -> bool:
    return (u == v or (math.isnan(u) and math.isnan(v))) and math.copysign(
        1.0, u
    ) == math.copysign(1.0, v)


def _nodes(expr):
    yield expr
    for name in ("left", "right", "operand", "base"):
        child = getattr(expr, name, None)
        if child is not None:
            yield from _nodes(child)


def _needs_point_loop(expr) -> bool:
    """Some divisor depends on x, is zero, or itself divides by zero."""
    for node in _nodes(expr):
        if isinstance(node, Div):
            if any(isinstance(n, Var) for n in _nodes(node.right)):
                return True
            try:
                if walk_eval(node.right, F(0), Fraction) == 0:
                    return True
            except WalkDivisionByZero:
                return True
    return False


class TestCompiledEvaluators:
    @pytest.mark.parametrize("k", [0, 62, 63, 1000])
    def test_two_x_terms(self, k):
        # x against x^2/3 below and above 3, with 2^(k+2) in the smaller
        # point's denominator: past 64 twos both operands carry many, and
        # sums and comparisons align them by shifts.
        ops = {Add: add, Sub: sub, Min: min, Max: max}
        for x in (F(3, 4 << k), F((4 << k) - 1, 1 << k)):
            terms = {X: x, Div(Pow(X, 2), C(3)): x * x / 3}
            for (left, u), (right, v) in itertools.permutations(terms.items()):
                for node, op in ops.items():
                    assert eval_exact(node(left, right), x) == op(u, v)

    @pytest.mark.parametrize("node", [Min, Max])
    @pytest.mark.parametrize("k", [0, 64, 65, 1000])
    def test_tie_keeps_the_left_pair(self, node, k):
        # abs(x) + abs(x) and 2 abs(x) are equal but come out in different
        # terms (abs keeps them closures, not one polynomial kernel); at a
        # tie min and max return the left operand's pair, whichever it is.
        sum_, double = Add(Abs(X), Abs(X)), Mul(C(2), Abs(X))
        n, d = 3, 5 << k
        sum_pair = _compile_exact(sum_, ())[0](n, d)
        double_pair = _compile_exact(double, ())[0](n, d)
        assert sum_pair != double_pair
        assert _compile_exact(node(sum_, double), ())[0](n, d) == sum_pair
        assert _compile_exact(node(double, sum_), ())[0](n, d) == double_pair

    @pytest.mark.parametrize("k", [0, 64, 65, 1000])
    @pytest.mark.parametrize(
        "text",
        ["x^3000 - 1/2", "x^9 - x^9 + 1", "(1+6x^2)/7", "3*x*x - x^2", "-(x^5)/(-4) + x^0"],
    )
    def test_polynomial_kernels_equal_walk(self, text, k):
        # Polynomial shapes eval_trees does not draw: a sparse high power,
        # terms that cancel, a product of two single terms, x^0 and a
        # negative divisor.  Each point has k twos in its denominator: one
        # near 0 and one past 5, and the grid's us/den near 0.
        expr = parse(text)
        den = 5 << k
        for x in (F(3, den), F((5 << k) + 3, 1 << k)):
            assert eval_exact(expr, x) == walk_eval(expr, x, Fraction)
        column, enclose, scale = _compile_grid(expr, den)
        us = range(-3, 4)
        got = list(column(us))
        want = [walk_eval(expr, F(u, den), Fraction) for u in us]
        # Cross-multiplied: reducing N/scale of x^3000 would take a gcd of
        # 3,000,000-bit integers.
        assert all(n * w.denominator == w.numerator * scale for n, w in zip(got, want))
        lo, hi = enclose(us[0], us[-1])
        assert all(lo <= n <= hi for n in got)

    def test_a_sparse_power_is_not_expanded(self):
        # Two terms: a dense list of 3,000,001 coefficients would take minutes.
        start = time.perf_counter()
        got = eval_exact(parse("x^3000000 - 1/2"), F(1, 2))
        assert time.perf_counter() - start < 10
        assert (got.numerator, got.denominator) == (1 - (1 << 2999999), 1 << 3000000)

    @given(eval_trees, _exact_points)
    @settings(max_examples=300, deadline=None)
    def test_exact_equals_walk_in_lowest_terms(self, expr, x):
        got, got_error = _outcome(eval_exact, expr, x)
        want, want_error = _outcome(walk_eval, expr, x, Fraction)
        assert got_error == want_error
        if want_error is None:
            assert type(got) is Fraction
            assert got == want
            assert got.denominator > 0
            assert math.gcd(got.numerator, got.denominator) == 1

    @given(eval_trees, _float_points)
    @settings(max_examples=300, deadline=None)
    def test_float_bit_identical_to_walk(self, expr, x):
        got, got_error = _outcome(eval_float, expr, x)
        want, want_error = _outcome(walk_eval, expr, x, float)
        assert got_error == want_error
        if want_error is None:
            assert _same_float(got, want)

    @given(
        eval_trees,
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=-(10**6), max_value=10**6),
        st.integers(min_value=1, max_value=10**4),
    )
    @settings(max_examples=300, deadline=None)
    def test_grid_columns_equal_walk(self, expr, den, u0, stride):
        # The verifier's grid columns: integers N over one scale s with
        # N/s = f(u/den) at every u.  Every tree whose divisors are
        # nonzero constants gets them; x^0 counts as the constant 1.  The
        # block's integer enclosure holds every one of those N.
        kernel = _compile_grid(expr, den)
        if kernel is None:
            assert _needs_point_loop(expr)
            return
        column, enclose, scale = kernel
        us = range(u0, u0 + 16 * stride, stride)
        got = list(column(us))
        assert type(scale) is int and scale > 0
        assert all(type(n) is int for n in got)
        want = [walk_eval(expr, Fraction(u, den), Fraction) for u in us]
        assert [Fraction(n, scale) for n in got] == want
        lo, hi = enclose(us[0], us[-1])
        assert type(lo) is int and type(hi) is int
        assert all(lo <= value * scale <= hi for value in want)

    @pytest.mark.parametrize(
        "text",
        [
            "2/3 + (x^2 - x/3)",
            "(x^2 - x/3) + 2/3",
            "2/3 - (x^2 - x/3)",
            "(x^2 - x/3) - 2/3",
            "-2/3 * (x^2 - x/3)",
            "(x^2 - x/3) * -2/3",
            "(x^2 - x/3) / (-2/3)",
            "min(2/3, x^2 - x/3)",
            "max(x^2 - x/3, 2/3)",
            "max(2/3, (x^2 - x/3) / (-2/3))",
            "-abs(x - 1/2)^3 + 0*x",
            "x^0 + (1/x^0)",
        ],
    )
    def test_grid_columns_with_a_constant_on_either_side(self, text):
        expr = parse(text)
        column, enclose, scale = _compile_grid(expr, 14)
        us = range(-30, 31)
        want = [walk_eval(expr, Fraction(u, 14), Fraction) for u in us]
        assert [Fraction(n, scale) for n in column(us)] == want
        lo, hi = enclose(-30, 30)
        assert all(lo <= value * scale <= hi for value in want)
        # The exact evaluator's closures for the same constant operands.
        for u, value in zip(us, want):
            got = eval_exact(expr, Fraction(u, 14))
            assert got == value
            assert got.denominator > 0 and math.gcd(got.numerator, got.denominator) == 1

    @pytest.mark.parametrize(
        "text,x,path",
        [
            ("1/(x-1)", 1, ("Div",)),
            ("x + 2/(3-3)", 5, ("Add[1]", "Div")),
            ("min(x, 1/x) + 1/0", 0, ("Add[0]", "Min[1]", "Div")),
            ("min(x, 1/x) + 1/0", 2, ("Add[1]", "Div")),
            ("(1/x)^0", 0, ("Pow", "Div")),
            ("abs(-(x/(x*0)))", 3, ("Abs", "Neg", "Div")),
            ("x/(1-1)", 5, ("Div",)),
            ("(1/x)/(2-2)", 0, ("Div[0]", "Div")),
            ("(1/x)/(2-2)", 3, ("Div",)),
        ],
    )
    def test_error_location_in_both_backends(self, text, x, path):
        expr = parse(text)
        for evaluate, point in ((eval_exact, F(x)), (eval_float, float(x))):
            with pytest.raises(EvalError) as err:
                evaluate(expr, point)
            assert err.value.path == path
            assert err.value.x == point and type(err.value.x) is type(point)

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda tree: eval_exact(tree, F(1, 3)),
            lambda tree: eval_float(tree, 0.25),
            lambda tree: grid_oracle(tree, F(0), F(1), F(1, 10), 8),
        ],
        ids=["eval_exact", "eval_float", "grid_oracle"],
    )
    def test_malformed_tree_raises_type_error(self, evaluate):
        with pytest.raises(TypeError, match=r"^not a function expression: 'x'$"):
            evaluate(Add(X, "x"))

    def test_compiling_leaves_the_tree_unchanged(self):
        tree = parse(SAMPLE_TEXT)
        twin = parse(SAMPLE_TEXT)
        before = (repr(tree), hash(tree))
        assert eval_exact(tree, F(1, 3)) == eval_exact(twin, F(1, 3))
        eval_float(tree, 0.25)
        assert (repr(tree), hash(tree)) == before
        assert tree == twin == SAMPLE_TREE
        again = pickle.loads(pickle.dumps(tree))
        assert again == tree and eval_exact(again, F(1, 3)) == eval_exact(tree, F(1, 3))


class TestCoprimeFraction:
    """``numerics._coprime`` fills a Fraction's two slots without a gcd."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(-(10**700), 10**700), st.integers(1, 10**700))
    def test_same_as_the_constructor(self, num, den):
        g = math.gcd(num, den)
        num, den = num // g, den // g
        q, ref = numerics._coprime(num, den), Fraction(num, den)
        assert type(q) is Fraction
        assert (q.numerator, q.denominator) == (ref.numerator, ref.denominator)
        assert q == ref and hash(q) == hash(ref)
        for twin in (pickle.loads(pickle.dumps(q)), copy.copy(q), copy.deepcopy(q)):
            assert type(twin) is Fraction and twin == ref and hash(twin) == hash(ref)

    def test_fills_the_slots_without_calling_the_class(self):
        class Slotted:  # Fraction's layout, with a constructor that refuses
            __slots__ = ("_numerator", "_denominator")

            def __new__(cls, *args):
                raise AssertionError("constructor called")

        q = numerics._coprime_for(Slotted)(3, 4)
        assert type(q) is Slotted and (q._numerator, q._denominator) == (3, 4)

    def test_falls_back_to_the_normalizing_constructor(self):
        class Plain:  # no slots, or other ones: only the constructor is safe
            def __init__(self, num, den):
                self.args = (num, den)

        make = numerics._coprime_for(Plain)
        assert make is Plain
        assert make(4, 6).args == (4, 6)
