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
bit.  The hot normalizations go through it: trace decoding, the
evaluator's results, and the exact backend's weight and window updates.

Text forms are fixed because they appear verbatim in the JSONL trace
format: rationals render as ``num/den`` (always with the denominator,
e.g. ``-13/14``, ``0/1``).
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction
from math import gcd
from typing import Union

__all__ = [
    "reduced",
    "format_rational",
    "scalar_text",
    "parse_rational",
]


def _coprime_maker(cls=Fraction):
    """Return ``make(num, den)`` that builds ``cls(num, den)`` without a gcd.

    The caller guarantees ``gcd(num, den) == 1`` and ``den > 0``.  CPython
    >= 3.12 has ``Fraction._from_coprime_ints``, <= 3.11 the
    ``_normalize=False`` keyword; otherwise this falls back to plain
    ``cls(num, den)``, which normalizes.
    """
    make = getattr(cls, "_from_coprime_ints", None)
    if make is not None:
        return make
    try:
        cls(1, 1, _normalize=False)
    except TypeError:
        return cls
    return lambda num, den: cls(num, den, _normalize=False)


_coprime = _coprime_maker()

# ``den & _FEW_TWOS`` is nonzero iff den has at most 64 factors of two (a
# machine word).  On such small operands the split in reduced() costs more
# than the full gcd it saves, so they go straight to Fraction.  Measured on
# Python 3.11.7 (2-vCPU VM), Fraction(num, den) against the split: 0.75-0.98
# vs 1.3-1.6 us at 20-60 bits, 2.5 vs 1.6 us at 300 bits, 18 vs 2.6 us at
# 2,000 bits, 120 vs 9.2 us at 7,500 bits.
_FEW_TWOS = (1 << 65) - 1


def reduced(num: int, den: int) -> Fraction:
    """``Fraction(num, den)`` for ``den > 0``: the same numerator and denominator.

    gcd(n, 2^k m) = 2^min(v2(n), k) gcd(n, m) for odd m, so the common
    power of two is shifted out and the gcd runs against the odd part of
    the denominator alone, which is small on the iteration's windows.
    """
    if den & _FEW_TWOS:
        return Fraction(num, den)
    if not num:
        return _coprime(0, 1)
    k = (den & -den).bit_length() - 1
    j = min(k, (num & -num).bit_length() - 1)
    num >>= j
    den >>= j
    g = gcd(num, den >> (k - j))
    if g != 1:
        num //= g
        den //= g
    return _coprime(num, den)


def format_rational(q: Fraction) -> str:
    """Render ``q`` as ``num/den``, denominator always present."""
    try:
        return f"{q.numerator}/{q.denominator}"
    except ValueError:
        # str(int) refuses more than sys.get_int_max_str_digits() digits
        # (4300 by default); Decimal converts exactly with no such limit.
        return f"{Decimal(q.numerator)}/{Decimal(q.denominator)}"


def scalar_text(value: Union[Fraction, float]) -> str:
    """``str(value)``, or ``format_rational(value)`` past the digit limit."""
    try:
        return str(value)
    except ValueError:
        return format_rational(value)


def parse_rational(text: str) -> Fraction:
    """Parse ``num/den``, integer, or decimal text into an exact rational.

    Decimals convert exactly (``0.25`` -> 1/4), never through binary
    floats.  Integer and ``num/den`` text may have any number of digits.
    """
    # Fast path for the trace format's own ``-?[0-9]+/[0-9]+``: ASCII
    # digits only, a nonzero denominator, within the digit limit.  Every
    # other text takes the general path below.
    num, slash, den = text.partition("/")
    digits = num[1:] if num[:1] == "-" else num
    if slash and den.isascii() and den.isdigit() and digits.isascii() and digits.isdigit():
        try:
            n, d = int(num), int(den)
        except ValueError:
            pass
        else:
            if d:
                return reduced(n, d)
    try:
        try:
            return Fraction(text.strip())
        except ValueError:
            # Past the int-to-text digit limit (see format_rational), read
            # the integers through Decimal.
            match = re.fullmatch(r"\s*([-+]?[0-9]+)(?:/([0-9]+))?\s*", text)
            if match is None:
                raise
            return Fraction(int(Decimal(match[1])), int(Decimal(match[2] or 1)))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc
