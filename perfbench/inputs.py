"""Seeded problem generator and the benchmark's own exact evaluator.

Every generated function is emitted twice: as DSL text, which is all the
program under test receives, and as coefficient data, which only the
benchmark's evaluator reads.  The evaluator below uses Horner's rule on
integers and ``fractions.Fraction`` and never touches
``interpbisect.funcdsl``, so the checks that use it are independent of
the program's parser and tree walk.

The family follows the test corpus: min/max combinations of quartics that
stay at least 1/2 away from zero, so they only ever give saturated
weights, plus a line s(x - z) that is the active branch inside the
tolerance band.  The rejection rule is the same too: the endpoints must
bracket a sign change, and no textbook-bisection midpoint within the
classical step count may have f exactly 0.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

# A shape is ("poly", (c0, c1, ...)) with coefficients lowest degree
# first, or ("min" | "max", left_shape, right_shape).
Shape = Tuple


@dataclass(frozen=True)
class Problem:
    name: str
    text: str
    shape: Shape
    a: Fraction
    b: Fraction


@functools.lru_cache(maxsize=None)
def _integer_poly(coeffs: Tuple[Fraction, ...]) -> Tuple[Tuple[int, ...], int]:
    """(P, L) with coeffs[i] = P[i] / L: integer coefficients over one denominator."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (den // c.denominator) for c in coeffs), den


def evaluate(shape: Shape, x: Fraction) -> Fraction:
    """f(x) in exact rational arithmetic, from coefficient data.

    A polynomial at x = u/v is sum P_i u^i v^(d-i) / (L v^d), computed by
    Horner's rule on integers with a single reduction at the end.
    """
    kind = shape[0]
    if kind == "poly":
        ints, den = _integer_poly(shape[1])
        u, v = x.numerator, x.denominator
        acc, v_power = 0, 1
        for c in reversed(ints):
            acc = acc * u + c * v_power
            v_power *= v
        return Fraction(acc, den * v_power // v)
    left = evaluate(shape[1], x)
    right = evaluate(shape[2], x)
    return min(left, right) if kind == "min" else max(left, right)


def _num(q: Fraction) -> str:
    return f"({q.numerator})" if q.denominator == 1 else f"({q.numerator}/{q.denominator})"


def to_text(shape: Shape) -> str:
    """DSL text with the same value as ``shape`` at every x."""
    if shape[0] == "poly":
        terms = []
        for k, c in enumerate(shape[1]):
            if c == 0:
                continue
            if k == 0:
                terms.append(_num(c))
            elif k == 1:
                terms.append(f"{_num(c)}*x")
            else:
                terms.append(f"{_num(c)}*x^{k}")
        return " + ".join(terms) or "0"
    return f"{shape[0]}({to_text(shape[1])}, {to_text(shape[2])})"


def textbook_bisection(shape: Shape, a: Fraction, b: Fraction, steps: int
                       ) -> List[Tuple[Fraction, Fraction, Fraction, Fraction]]:
    """Sign-rule halving: keep [c, b] when f(c) < 0, else [a, c].

    One (a_n, b_n, c_n, f(c_n)) row per step.
    """
    rows = []
    for _ in range(steps):
        c = (a + b) / 2
        f_c = evaluate(shape, c)
        rows.append((a, b, c, f_c))
        if f_c < 0:
            a = c
        else:
            b = c
    return rows


def _rat_between(rng: random.Random, lo: Fraction, hi: Fraction, max_den: int) -> Fraction:
    den = rng.randint(1, max_den)
    lo_n, hi_n = math.ceil(lo * den), math.floor(hi * den)
    if lo_n > hi_n:
        return Fraction(lo_n, den)
    return Fraction(rng.randint(lo_n, hi_n), den)


def _positive_quartic(rng: random.Random) -> Shape:
    """q(x)^2 + m with deg q <= 2 and m >= 1/2, expanded."""
    qa, qb, qc = (_rat_between(rng, Fraction(-2), Fraction(2), 6) for _ in range(3))
    m = _rat_between(rng, Fraction(1, 2), Fraction(3), 8)
    return ("poly", (qc * qc + m, 2 * qb * qc, 2 * qa * qc + qb * qb, 2 * qa * qb, qa * qa))


def _negate(shape: Shape) -> Shape:
    return ("poly", tuple(-c for c in shape[1]))


def _line(rng: random.Random, a: Fraction, b: Fraction) -> Shape:
    """s(x - z), slope s in [3, 30], root z in the middle three fifths."""
    width = b - a
    s = _rat_between(rng, Fraction(3), Fraction(30), 5)
    z = _rat_between(rng, a + width / 5, b - width / 5, 60)
    return ("poly", (-s * z, s))


def _candidate(rng: random.Random, index: int) -> Tuple[Shape, Fraction, Fraction]:
    a = -_rat_between(rng, Fraction(1, 2), Fraction(3), 4)
    b = _rat_between(rng, Fraction(1, 2), Fraction(3), 4)
    line = _line(rng, a, b)
    template = index % 5
    if template == 0:
        shape = ("min", _positive_quartic(rng), line)
    elif template == 1:
        shape = ("max", _negate(_positive_quartic(rng)), line)
    elif template == 2:
        shape = ("min", _positive_quartic(rng),
                 ("max", _negate(_positive_quartic(rng)), line))
    else:
        shape = ("min" if template == 3 else "max", line, _line(rng, a, b))
    return shape, a, b


def make_corpus(seed: int, count: int, classical_steps: int = 30) -> List[Problem]:
    """``count`` sign-bracketing corpus problems, the same for the same seed."""
    rng = random.Random(seed)
    out: List[Problem] = []
    for index in range(count):
        for _ in range(200):
            shape, a, b = _candidate(rng, index)
            if not evaluate(shape, a) < 0 < evaluate(shape, b):
                continue
            rows = textbook_bisection(shape, a, b, classical_steps)
            if all(f_c != 0 for *_, f_c in rows):
                out.append(Problem(f"corpus-{seed}-{index:03d}", to_text(shape), shape, a, b))
                break
        else:
            raise RuntimeError(f"corpus generation stalled at index {index}")
    return out


# The walked-through sample problem of the README: a parabola capped by a
# steep line on [-1, 1], min((1+6x^2)/7, 8+9x).  Its parabola branch is
# active inside the band, so exact denominators grow about as n^2/2 bits.
SAMPLE = Problem(
    "sample",
    "min((1+6x^2)/7, 8+9x)",
    ("min", ("poly", (Fraction(1, 7), Fraction(0), Fraction(6, 7))),
     ("poly", (Fraction(8), Fraction(9)))),
    Fraction(-1),
    Fraction(1),
)

# A cubic that is band-active at epsilon = 1: bit sizes multiply by about
# three per step, which is why it is only run for a few steps.
CUBIC = Problem(
    "cubic",
    "x^3 - 1/3",
    ("poly", (Fraction(-1, 3), Fraction(0), Fraction(0), Fraction(1))),
    Fraction(0),
    Fraction(1),
)


def mirror(p: Problem) -> Problem:
    """g(x) = -f(-x) on [-b, -a]: the same family, with the roots reflected.

    A scan from the left meets g's band where a scan from the right would
    meet f's, so a function and its mirror together cost about one full
    grid whatever the seed puts the root.
    """
    def flip(shape: Shape) -> Shape:
        if shape[0] == "poly":
            return ("poly", tuple(-c if k % 2 == 0 else c for k, c in enumerate(shape[1])))
        return ("max" if shape[0] == "min" else "min", flip(shape[1]), flip(shape[2]))

    shape = flip(p.shape)
    return Problem(p.name + "-mirror", to_text(shape), shape, -p.b, -p.a)


def bits(q: Fraction) -> int:
    """Denominator bit length of an exact scalar."""
    return q.denominator.bit_length()
