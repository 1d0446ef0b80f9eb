"""Rational helpers, the weight's clamp, backends, text forms."""

import json
import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interpbisect import (
    BACKENDS,
    EXACT,
    FLOAT64,
    format_rational,
    parse_rational,
)
from interpbisect.numerics import _aligned, reduced, scalar_text


# CPython's cap on int <-> decimal text conversion (4,300 digits by
# default; interpreters that predate the cap have none).
TEXT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 4300)()


def clamp_via_weight(x, backend=EXACT):
    """The weight's clamp to [0, 1]: at epsilon = 1 the weight of x - 1/2 is
    ``max(0, min(x, 1))``, computed in ``backend``."""
    half = backend.convert("1/2")
    return backend.interpolation_weight(x - half, 2 * half)


class TestClampUnit:
    """The clamp inside the backends' ``interpolation_weight``, on its own."""

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
        assert clamp_via_weight(value) == expected

    def test_float_type_preserved(self):
        out = clamp_via_weight(0.75, FLOAT64)
        assert isinstance(out, float) and out == 0.75
        assert clamp_via_weight(2.5, FLOAT64) == 1.0
        assert clamp_via_weight(-0.5, FLOAT64) == 0.0

    def test_exhaustive_small_rationals(self):
        for den in range(1, 13):
            for num in range(-30, 31):
                x = Fraction(num, den)
                out = clamp_via_weight(x)
                assert Fraction(0) <= out <= Fraction(1)
                if 0 <= x <= 1:
                    assert out == x

    @given(
        st.fractions(min_value=-100, max_value=100),
        st.fractions(min_value=-100, max_value=100),
    )
    @settings(max_examples=200)
    def test_monotone_and_one_lipschitz(self, x, y):
        cx, cy = clamp_via_weight(x), clamp_via_weight(y)
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

    @pytest.mark.parametrize("tail", ["/0", "/00", "/x", "/-1", ".5/3", "/3.5", ".5.5"])
    def test_parse_rejects_long_malformed_text(self, tail):
        with pytest.raises(ValueError):
            parse_rational("1" * (TEXT_DIGIT_LIMIT + 1) + tail)

    @pytest.mark.digit_limit
    @pytest.mark.parametrize("sign", ["", "-", "+"], ids=["unsigned", "minus", "plus"])
    @pytest.mark.parametrize("whole", ["", "0", "12"], ids=["point", "zero", "twelve"])
    def test_decimals_past_the_text_conversion_limit(self, sign, whole):
        # The same forms as -f's decimal literals: [0-9]+.[0-9]+ and .[0-9]+.
        n = TEXT_DIGIT_LIMIT + 1
        expected = Fraction(_ones(n) + int(whole or 0) * 10**n, 10**n)
        assert parse_rational(f" {sign}{whole}.{'1' * n} ") == (-expected if sign == "-" else expected)


class TestBackends:
    def test_names(self):
        assert BACKENDS == {"exact": EXACT, "float": FLOAT64}
        assert "double" not in BACKENDS

    def test_exact_properties(self):
        assert EXACT.name == "exact" and EXACT.scalar is Fraction
        assert FLOAT64.name == "float" and FLOAT64.scalar is float

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
        # to_json writes a scalar's JSON text; read takes it back from a match of the value grammar.
        for backend, value, text in (
            (EXACT, Fraction(-7, 12), '"-7/12"'),
            (FLOAT64, 0.3, "0.3"),
            (FLOAT64, -math.inf, "-Infinity"),
        ):
            to_json, read, _ = backend._trace_codec()
            assert to_json(value) == text == json.dumps(json.loads(text))
            assert read(re.fullmatch(backend._value, to_json(value)), 1) == [value]

    def test_json_rejects_wrong_shapes(self):
        # No JSON text of these values is a value as the writer writes it.
        for backend, value in (
            (EXACT, 0.5),
            (EXACT, 2),
            (EXACT, "1/0"),
            (FLOAT64, "1/2"),
            (FLOAT64, True),
            (FLOAT64, 2),
        ):
            assert re.fullmatch(backend._value, json.dumps(value)) is None
        # An exact value out of lowest terms matches, and reads as None.
        _, read, _ = EXACT._trace_codec()
        assert read(re.fullmatch(EXACT._value, '"2/4"'), 1) is None


def _bits(max_bits):
    """Non-negative integers of up to ``max_bits`` bits, spread over all sizes."""
    return st.integers(0, max_bits).flatmap(lambda b: st.integers(0, (1 << b) - 1))


def _odd(max_bits):
    return _bits(max_bits).map(lambda v: 2 * v + 1)


# Powers of two in a denominator on both sides of reduced()'s 64-bit cut-over.
TWOS = st.sampled_from([0, 1, 63, 64, 65, 1000])
SHARED_TWOS = st.one_of(
    st.sampled_from([0, 1, 62, 63, 64, 65, 66, 999, 1000, 1001]), st.integers(0, 1100)
)


def _same_terms(q, expected):
    assert type(q) is Fraction
    assert (q.numerator, q.denominator) == (expected.numerator, expected.denominator)


class TestReduced:
    """``reduced(n, d)`` is ``Fraction(n, d)``, term for term."""

    @pytest.mark.parametrize(
        "num,den",
        [
            (0, 1 << 100),
            (3 * 5 << 70, 9 << 100),
            (-(3 * 5 << 70), 9 << 100),
            (7 << 100, 21 << 65),
            (1, 1 << 1000),
            (-6, 4),
            (5 << 64, 15 << 64),
        ],
        ids=[
            "zero",
            "shared-odd-factor",
            "negative",
            "more-twos-in-numerator",
            "power-of-two",
            "small",
            "at-the-cut-over",
        ],
    )
    def test_examples(self, num, den):
        _same_terms(reduced(num, den), Fraction(num, den))

    @given(
        st.sampled_from([-1, 0, 1]),
        _bits(5000),
        _odd(1500),
        SHARED_TWOS,
        _odd(1500),
        TWOS,
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction(self, sign, m, shared, j, odd, k):
        # num = +-m 2^j s and den = o s 2^k share s and min(j + v2(m), k) twos.
        num = sign * (m << j) * shared
        den = (odd * shared) << k
        _same_terms(reduced(num, den), Fraction(num, den))


# Powers of two in a denominator: both sides of the 64-bit cut-over, and
# the thousands of bits a deep exact run reaches.
ALIGN_TWOS = st.sampled_from([0, 1, 63, 64, 65, 1000, 8000])


class TestAligned:
    """``_aligned`` puts two pairs over one denominator, shifting the twos."""

    @given(
        st.integers(-(1 << 2100), 1 << 2100), _odd(2000), ALIGN_TWOS,
        st.integers(-(1 << 2100), 1 << 2100), _odd(2000), ALIGN_TWOS,
    )
    @settings(max_examples=300, deadline=None)
    def test_sum_and_order_match_fraction(self, an, p, i, bn, q, j):
        ad, bd = p << i, q << j
        x, y, u, v = _aligned(an, ad, bn, bd)
        assert u * v > 0
        assert Fraction(x, u * v) == Fraction(an, ad)
        assert Fraction(y, u * v) == Fraction(bn, bd)
        assert Fraction(x + y, u * v) == Fraction(an, ad) + Fraction(bn, bd)
        assert Fraction(x - y, u * v) == Fraction(an, ad) - Fraction(bn, bd)
        assert (x < y) == (Fraction(an, ad) < Fraction(bn, bd))
        assert (y < x) == (Fraction(bn, bd) < Fraction(an, ad))

    @given(st.integers(-(1 << 2100), 1 << 2100), _odd(2000), ALIGN_TWOS, ALIGN_TWOS, _odd(60))
    @settings(max_examples=200, deadline=None)
    def test_equal_values_align_equal(self, n, p, i, extra, m):
        # n/(p 2^i) written a second way, with m 2^extra in both terms.
        x, y, _, _ = _aligned(n, p << i, n * m << extra, (p * m) << (i + extra))
        assert x == y

    @pytest.mark.parametrize(
        "i,j", [(0, 0), (64, 64), (64, 8000), (65, 64), (65, 65), (65, 8000), (8000, 65), (1000, 1000)]
    )
    def test_denominator_keeps_one_power_of_two(self, i, j):
        # Past 64 twos on both sides: 2^max(i, j) times the odd parts, not
        # 2^(i + j).  At 64 or fewer on either side the pairs
        # cross-multiply, and the denominator is ad * bd.
        _, _, u, v = _aligned(-7, 3 << i, 0, 5 << j)
        assert u * v == (15 << max(i, j) if min(i, j) > 64 else (3 << i) * (5 << j))


# A run of n ones, built without int <-> text conversion, so a test runs
# under any digit limit.
def _ones(n):
    return (10**n - 1) // 9


class TestParseFastPath:
    """Texts that once took a fast path for ``num/den``, each with its value or refusal (None)."""

    EXAMPLES = {
        "2/4": Fraction(1, 2), "-0/5": Fraction(0), "-12/8": Fraction(-3, 2),
        "1/0": None, "3/00": None, "-/3": None, "-6/-3": None,
        " 1/2": Fraction(1, 2), "+1/2": Fraction(1, 2),
        # Fraction reads PEP 515 underscores from Python 3.11 on.
        "1_0/4": Fraction(5, 2) if sys.version_info >= (3, 11) else None,
        "\u0663/4": Fraction(3, 4), "4/\u0663": Fraction(4, 3),
        "0.25": Fraction(1, 4), "7": Fraction(7), "-7": Fraction(-7),
        "1/2/3": None, "/2": None, "2/": None,
        f"{15 << 70}/{9 << 100}": Fraction(5, 3 << 30),
        f"-{15 << 70}/{9 << 100}": Fraction(-5, 3 << 30),
        "1" * (TEXT_DIGIT_LIMIT + 1) + "/3": Fraction(_ones(TEXT_DIGIT_LIMIT + 1), 3),
        "3/" + "1" * (TEXT_DIGIT_LIMIT + 1): Fraction(3, _ones(TEXT_DIGIT_LIMIT + 1)),
    }

    @pytest.mark.parametrize(
        "text", list(EXAMPLES), ids=lambda text: text if len(text) <= 24 else f"{text[:10]}..{text[-10:]}"
    )
    def test_examples(self, text):
        expected = self.EXAMPLES[text]
        if expected is None:
            with pytest.raises(ValueError, match=re.escape(f"not a rational number: {text!r}")):
                parse_rational(text)
        else:
            _same_terms(parse_rational(text), expected)

    @given(st.text(alphabet="0123456789-+/_. \u0663", max_size=12))
    @settings(max_examples=500)
    def test_short_texts(self, text):
        # Below the digit limit Fraction reads the text, and refuses what parse_rational refuses.
        try:
            expected = Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ValueError, match=re.escape(f"not a rational number: {text!r}")):
                parse_rational(text)
        else:
            _same_terms(parse_rational(text), expected)

    @given(st.integers(-(1 << 7000), 1 << 7000), _odd(1500), TWOS, st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_ratios(self, num, odd, k, lead_zero):
        text = f"{num}/{'0' if lead_zero else ''}{odd << k}"
        _same_terms(parse_rational(text), Fraction(num, odd << k))


class TestScalarText:
    def test_small_values_read_as_str(self):
        assert scalar_text(Fraction(-1, 3)) == "-1/3"
        assert scalar_text(Fraction(4)) == "4"
        assert scalar_text(0.25) == "0.25"

    @pytest.mark.digit_limit
    def test_past_the_digit_limit(self):
        q = Fraction(10 ** (TEXT_DIGIT_LIMIT + 10) + 1, 3)
        assert scalar_text(q) == format_rational(q)
        # An integer reads as str writes one below the limit, without "/1".
        assert scalar_text(Fraction(-(10 ** (TEXT_DIGIT_LIMIT + 10)))) == "-1" + "0" * (TEXT_DIGIT_LIMIT + 10)
