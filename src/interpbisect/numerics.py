"""Rational helpers shared by the exact backend, the evaluator and traces.

Exact scalars are ``fractions.Fraction``: arbitrary-precision integers,
always in lowest terms with a positive denominator.  The two backends
that run the iteration live in :mod:`interpbisect.core`; this module
holds what they, the evaluator and the trace format need of rationals.

The iteration halves its window at every step, so an exact run's
denominators are a power of two times a small odd cofactor: thousands of
bits, nearly all of them twos.  :func:`reduced` therefore brings a
``num/den`` pair to lowest terms by shifting out the common power of two
and taking the gcd of what is left, instead of a full gcd over every
bit.  The hot normalizations go through it: the evaluator's results,
and the exact backend's weight and window updates.
For the same reason :func:`_aligned` puts two such pairs over one
denominator by shifting out the difference in their powers of two and
multiplying by the odd parts only, where cross-multiplying would
multiply the powers of two together.  It picks its own path: pairs with
few twos it cross-multiplies.  The exact midpoint, the window update and
the evaluator's sums and comparisons of two x-dependent subtrees go
through it.

Every reduced value is built by :data:`_coprime`, which fills a new
Fraction's two slots: the pair is already in lowest terms, so it does
not pay for ``Fraction``'s constructor, which would take a gcd again.

Two conversion rules live here only.  :func:`_int_text` and
:func:`_text_int` convert an int to and from text of any length, through
Decimal past CPython's 4,300-digit limit (``sys.get_int_max_str_digits``).
:func:`_to_float` gives +inf or -inf where ``float()`` raises
OverflowError past the largest float.

Text forms are fixed because they appear verbatim in the JSONL trace
format: rationals render as ``num/den`` (always with the denominator,
e.g. ``-13/14``, ``0/1``).  A trace repeats its large denominators:
a_n, b_n and c_n share the window's on every line, and f(c_n) often
shares it too.  So the trace writer and reader convert each distinct
denominator once per call, through a memo dict per call
(:class:`_DenTexts`, and the one :func:`_read_pair` takes); the writer
quotes ``num/den`` itself, as digits need no JSON escape.  The reader's
memo also keeps the denominator's power of two and odd part, so it
tells a value in lowest terms (the only form the writer writes) after
one gcd against the odd part, or none, and builds it without another.
Numerators are converted every time: the ones that repeat are saturated
weights like ``1/1``, and a memo lookup that misses costs more than
converting a small integer.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from math import gcd, inf
from typing import Optional, Union

__all__ = [
    "reduced",
    "format_rational",
    "scalar_text",
    "parse_rational",
]


def _coprime_for(cls):
    """Return ``make(num, den)``: ``cls(num, den)`` for coprime num, den > 0, without a gcd.

    It fills the two slots of ``object.__new__(cls)``, as
    ``Fraction._from_coprime_ints`` does on CPython >= 3.12; that costs a
    quarter of ``Fraction(num, den, _normalize=False)`` on 3.11.  A class
    whose ``__slots__`` are not ``_numerator`` and ``_denominator`` gets
    plain ``cls``, which normalizes.
    """
    if getattr(cls, "__slots__", None) != ("_numerator", "_denominator"):
        return cls
    new = object.__new__

    def make(num: int, den: int):
        q = new(cls)
        q._numerator = num
        q._denominator = den
        return q

    return make


_coprime = _coprime_for(Fraction)

# ``den & _FEW_TWOS`` is nonzero iff den has at most 64 factors of two (a
# machine word).  On such small operands the split in reduced() costs more
# than the full gcd it saves, so they take one gcd.  Measured on Python
# 3.11.7 (2-vCPU VM) for den = 3 * 2^(bits - 2), one gcd against the split,
# both then _coprime: 0.65 vs 1.25 us at 20 bits, 0.76 vs 1.44 us at 60,
# 3.0 vs 1.9 us at 300, 25 vs 3.9 us at 2,000, 196 vs 6.1 us at 7,500
# (Fraction(num, den): 1.4, 1.7, 3.8, 25 and 178 us).  _aligned() uses the
# same test: a sum of two such pairs cost 0.26 us cross-multiplied against
# 0.44 us aligned at 30 twos, and 17 vs 1.7 us at 2,000.  A lone sum stays
# cheaper cross-multiplied up to about 256 twos, but a cut-over there made
# check_claim 6-8% slower: the evaluator carries 2^(i+j) into later nodes.
_FEW_TWOS = (1 << 65) - 1


def reduced(num: int, den: int) -> Fraction:
    """``Fraction(num, den)`` for ``den > 0``: the same numerator and denominator.

    gcd(n, 2^k m) = 2^min(v2(n), k) gcd(n, m) for odd m, so the common
    power of two is shifted out and the gcd runs against the odd part of
    the denominator alone, which is small on the iteration's windows.
    """
    if den & _FEW_TWOS:
        g = gcd(num, den)
    elif not num:
        return _coprime(0, 1)
    else:
        k = (den & -den).bit_length() - 1
        j = min(k, (num & -num).bit_length() - 1)
        num >>= j
        den >>= j
        g = gcd(num, den >> (k - j))
    if g != 1:
        num //= g
        den //= g
    return _coprime(num, den)


def _aligned(an: int, ad: int, bn: int, bd: int):
    """``(x, y, u, v)`` with an/ad = x/(u v) and bn/bd = y/(u v), for ad, bd > 0.

    The sum of the two pairs is (x + y, u * v), and an/ad < bn/bd iff
    x < y, so a comparison skips the product.  When either side has at
    most 64 twos (``(ad | bd) & _FEW_TWOS``) this cross-multiplies,
    ``(an bd, bn ad, ad, bd)``: there the shifts save less than the split
    costs.  Otherwise, with ad = 2^i p and bd = 2^j q (p, q odd), the
    common denominator is 2^max(i, j) p q: the smaller power of two is
    shifted up to the larger one and only the odd parts multiply.
    """
    if (ad | bd) & _FEW_TWOS:
        return an * bd, bn * ad, ad, bd
    i = (ad & -ad).bit_length() - 1
    j = (bd & -bd).bit_length() - 1
    if i <= j:
        p = ad >> i
        return (an * (bd >> j)) << (j - i), bn * p, bd, p
    q = bd >> j
    return an * q, (bn * (ad >> i)) << (i - j), ad, q


def _int_text(i: int) -> str:
    """``str(i)``, for an int of any length."""
    try:
        return str(i)
    except ValueError:
        return str(Decimal(i))


def _text_int(text: str) -> int:
    """``int(text)`` for text that matches ``[-+]?[0-9]+``, of any length."""
    try:
        return int(text)
    except ValueError:
        return int(Decimal(text))


def _to_float(value) -> float:
    """``float(value)``, or +inf or -inf for a value past the float range."""
    try:
        return float(value)
    except OverflowError:
        return inf if value > 0 else -inf


def format_rational(q: Fraction) -> str:
    """Render ``q`` as ``num/den``, denominator always present."""
    return f"{_int_text(q.numerator)}/{_int_text(q.denominator)}"


def scalar_text(value: Union[Fraction, float]) -> str:
    """``str(value)``, for a value of any length."""
    try:
        return str(value)
    except ValueError:
        return _int_text(value.numerator) if value.denominator == 1 else format_rational(value)


def _read_pair(num: str, den: str, dens: dict) -> Optional[Fraction]:
    """The value of ``num/den`` for the digit texts of a :data:`_PLAIN` match; None unless in lowest terms.

    ``dens`` memoizes denominator text -> (d, k, p) with d = 2^k p, p odd,
    for one trace reader.  num/d is in lowest terms when n is odd or d
    is, and n is coprime to p; it is then built with :data:`_coprime`.
    """
    shape = dens.get(den)
    if shape is None:
        d = _text_int(den)
        k = (d & -d).bit_length() - 1
        shape = dens[den] = d, k, d >> k
    d, k, p = shape
    n = _text_int(num)
    if (n & 1 or not k) and (p == 1 or gcd(n, p) == 1):
        return _coprime(n, d)
    return None


# The trace format's ``num/den`` text, as two groups for _read_pair: no
# sign on zero, no leading zeros, a positive denominator.
_PLAIN = r"(-?[1-9][0-9]*|0)/([1-9][0-9]*)"


class _DenTexts(dict):
    """Denominator texts for one trace writer: ``str(d)``, converted once."""

    def __missing__(self, d: int) -> str:
        text = self[d] = _int_text(d)
        return text

    def json(self, q: Fraction) -> str:
        """``json.dumps(format_rational(q))``, the denominator's text from here."""
        try:
            return f'"{q.numerator}/{self[q.denominator]}"'
        except ValueError:
            return f'"{format_rational(q)}"'


def parse_rational(text: str) -> Fraction:
    """Parse ``num/den``, integer, or decimal text into an exact rational.

    Decimals convert exactly (``0.25`` -> 1/4), never through binary
    floats.  Integer, ratio and decimal text may have any number of digits.
    """
    try:
        try:
            return Fraction(text.strip())
        except ValueError:
            # Past the digit limit: the parser's number forms, with a sign.
            match = re.fullmatch(r"\s*([-+]?(?=\.?[0-9])[0-9]*)(?:\.([0-9]+)|/([0-9]+))?\s*", text)
            if match is None:
                raise
            whole, decimals, den = match.groups("")
            return Fraction(_text_int(whole + decimals), _text_int(den or "1") * 10 ** len(decimals))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc
