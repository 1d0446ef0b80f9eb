"""Scalar layer: normalization, clamping, backends, text forms."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interpbisect import (
    EXACT,
    FLOAT64,
    BackendKind,
    ScalarBackend,
    backend_from_name,
    clamp_unit,
    format_rational,
    parse_rational,
    rat_normalize,
)


# CPython's cap on int <-> decimal text conversion (4,300 digits by
# default; interpreters that predate the cap have none).
TEXT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 4300)()


class TestRatNormalize:
    def test_lowest_terms(self):
        q = rat_normalize(2, 4)
        assert (q.numerator, q.denominator) == (1, 2)

    def test_sign_moves_to_numerator(self):
        q = rat_normalize(3, -6)
        assert (q.numerator, q.denominator) == (-1, 2)

    def test_zero(self):
        q = rat_normalize(0, 7)
        assert (q.numerator, q.denominator) == (0, 1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            rat_normalize(1, 0)

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6).filter(lambda d: d != 0))
    def test_canonical_representative(self, num, den):
        q = rat_normalize(num, den)
        assert q.denominator > 0
        assert q == Fraction(num, den)
        # already-normalized input is a fixed point
        again = rat_normalize(q.numerator, q.denominator)
        assert (again.numerator, again.denominator) == (q.numerator, q.denominator)


class TestClampUnit:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (Fraction(13, 14), Fraction(13, 14)),
            (Fraction(5, 2), Fraction(1)),
            (Fraction(-3), Fraction(0)),
            (Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(1)),
        ],
    )
    def test_examples(self, value, expected):
        assert clamp_unit(value) == expected

    def test_float_type_preserved(self):
        out = clamp_unit(0.75)
        assert isinstance(out, float) and out == 0.75
        assert clamp_unit(2.5) == 1.0
        assert clamp_unit(-0.5) == 0.0

    def test_exhaustive_small_rationals(self):
        for den in range(1, 13):
            for num in range(-30, 31):
                x = Fraction(num, den)
                out = clamp_unit(x)
                assert Fraction(0) <= out <= Fraction(1)
                if 0 <= x <= 1:
                    assert out == x

    @given(
        st.fractions(min_value=-100, max_value=100),
        st.fractions(min_value=-100, max_value=100),
    )
    @settings(max_examples=200)
    def test_monotone_and_one_lipschitz(self, x, y):
        cx, cy = clamp_unit(x), clamp_unit(y)
        if x <= y:
            assert cx <= cy
        assert abs(cx - cy) <= abs(x - y)


class TestExactArithmetic:
    def test_add_sub_round_trip_seeded(self):
        # 10^4 (p, q) pairs: (p + q) - q recovers p exactly.
        import random

        rng = random.Random(99)
        for _ in range(10**4):
            p = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
            q = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**6))
            assert (p + q) - q == p


class TestTextForms:
    def test_format_always_shows_denominator(self):
        assert format_rational(Fraction(-13, 14)) == "-13/14"
        assert format_rational(Fraction(0)) == "0/1"
        assert format_rational(Fraction(3)) == "3/1"

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("1/3", Fraction(1, 3)),
            ("-13/14", Fraction(-13, 14)),
            ("7", Fraction(7)),
            ("0.25", Fraction(1, 4)),
            ("  -0.1 ", Fraction(-1, 10)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_rational(text) == expected

    def test_parse_decimal_is_exact_not_binary(self):
        assert parse_rational("0.1") == Fraction(1, 10)

    @pytest.mark.parametrize("bad", ["", "x", "1/0", "1//2", "1.2.3"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @given(st.fractions(min_value=-10**6, max_value=10**6))
    def test_format_parse_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    def test_integers_past_the_text_conversion_limit(self):
        q = Fraction(-(10 ** (TEXT_DIGIT_LIMIT + 10)) - 7, 3 ** (3 * TEXT_DIGIT_LIMIT))
        text = format_rational(q)
        num, den = text.split("/")
        assert len(num) > TEXT_DIGIT_LIMIT and len(den) > TEXT_DIGIT_LIMIT
        assert parse_rational(text) == q
        assert parse_rational(num) == q.numerator

    @pytest.mark.parametrize("tail", ["/0", "/00", "/x", "/-1"])
    def test_parse_rejects_long_malformed_text(self, tail):
        with pytest.raises(ValueError):
            parse_rational("1" * (TEXT_DIGIT_LIMIT + 1) + tail)


class TestBackends:
    def test_names(self):
        assert backend_from_name("exact") is EXACT
        assert backend_from_name("float") is FLOAT64
        with pytest.raises(ValueError):
            backend_from_name("double")

    def test_exact_properties(self):
        assert EXACT.is_exact and EXACT.name == "exact"
        assert EXACT.kind is BackendKind.EXACT

    def test_float_precision_pinned_to_64(self):
        assert FLOAT64.precision_bits == 64
        with pytest.raises(ValueError):
            ScalarBackend(BackendKind.FLOAT, 32)

    def test_exact_convert(self):
        assert EXACT.convert("3/4") == Fraction(3, 4)
        assert EXACT.convert(5) == Fraction(5)
        assert EXACT.convert(Fraction(1, 3)) == Fraction(1, 3)

    def test_exact_convert_refuses_binary_floats(self):
        with pytest.raises(TypeError):
            EXACT.convert(0.1)

    def test_float_convert(self):
        assert FLOAT64.convert("1/2") == 0.5
        assert FLOAT64.convert(Fraction(1, 3)) == 1 / 3
        assert FLOAT64.convert(2) == 2.0

    def test_float_format_is_shortest_round_trip(self):
        assert FLOAT64.format(0.1) == "0.1"
        assert float(FLOAT64.format(1 / 3)) == 1 / 3

    def test_json_round_trip(self):
        q = Fraction(-7, 12)
        assert EXACT.from_json(EXACT.to_json(q)) == q
        assert FLOAT64.from_json(FLOAT64.to_json(0.3)) == 0.3

    def test_json_rejects_wrong_shapes(self):
        with pytest.raises(ValueError):
            EXACT.from_json(0.5)
        with pytest.raises(ValueError):
            FLOAT64.from_json("1/2")
