"""Independent oracles and the random function corpus the tests draw on.

The oracles here are deliberately written against the textbook
description of sign-rule bisection and against brute-force evaluation,
not against the package's own step/run code, so agreement between the
two is evidence rather than tautology.

Corpus note: exact interpolated runs propagate the denominator of
f(c_n) into the next interval whenever the weight lands strictly inside
(0, 1), so a degree-k branch active inside the tolerance band multiplies
denominator size by about k per step.  To keep 30-step exact runs cheap,
every generated function is a min/max combination of degree <= 4
polynomials whose branch active inside the band is linear: the quartic
branches stay outside the band by construction (bounded away by at least
1/2 > epsilon/2 for every epsilon used in the tests), where they only
ever produce saturated weights, and a saturated weight's shift is dyadic
and forgets the function value entirely.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from interpbisect import (
    Abs,
    Add,
    Div,
    FunctionExpr,
    Max,
    Min,
    Mul,
    Neg,
    Pow,
    RationalConst,
    Sub,
    Var,
    eval_exact,
)

X = Var()

# The walked-through sample problem used across the tests: a parabola
# capped by a steep line, on [-1, 1].  f(-1) = -1 < 0 < 1 = f(1), the
# only root is at x = -8/9, and f(0) = 1/7.
SAMPLE_TEXT = "min((1+6x^2)/7, 8+9x)"
SAMPLE_A = Fraction(-1)
SAMPLE_B = Fraction(1)
SAMPLE_ROOT = Fraction(-8, 9)


class WalkDivisionByZero(ArithmeticError):
    """Raised by :func:`walk_eval` where a denominator is exactly zero."""

    def __init__(self, x, path: Tuple[str, ...]):
        super().__init__(x, path)
        self.x = x
        self.path = path


def walk_eval(expr: FunctionExpr, x, lift, path: Tuple[str, ...] = ()):
    """Value of ``expr`` at ``x`` by a plain recursive walk of the tree.

    Exact with a Fraction ``x`` and ``lift=Fraction``: every node is one
    Fraction operation.  Binary64 with a float ``x`` and ``lift=float``:
    every node is one float operation, and a power that overflows gives
    an infinity of the power's sign.  Children are evaluated left to
    right; a zero denominator raises :class:`WalkDivisionByZero` with
    ``x`` and the node labels from the root down to the division, the
    location the package's ``EvalError`` promises.
    """
    if isinstance(expr, Var):
        return x
    if isinstance(expr, RationalConst):
        return lift(expr.value)
    name = type(expr).__name__
    if isinstance(expr, (Neg, Abs)):
        value = walk_eval(expr.operand, x, lift, path + (name,))
        return -value if isinstance(expr, Neg) else abs(value)
    if isinstance(expr, Pow):
        base = walk_eval(expr.base, x, lift, path + (name,))
        try:
            return base**expr.exponent
        except OverflowError:
            odd = expr.exponent % 2 == 1
            return -math.inf if base < 0 and odd else math.inf
    left = walk_eval(expr.left, x, lift, path + (f"{name}[0]",))
    right = walk_eval(expr.right, x, lift, path + (f"{name}[1]",))
    if isinstance(expr, Add):
        return left + right
    if isinstance(expr, Sub):
        return left - right
    if isinstance(expr, Mul):
        return left * right
    if isinstance(expr, Div):
        if right == 0:
            raise WalkDivisionByZero(x, path + ("Div",))
        return left / right
    if isinstance(expr, Min):
        return min(left, right)
    if isinstance(expr, Max):
        return max(left, right)
    raise TypeError(expr)


def textbook_bisection(
    f: FunctionExpr, a: Fraction, b: Fraction, steps: int
) -> List[Tuple[Fraction, Fraction, Fraction, Fraction]]:
    """Sign-rule interval halving, straight from the textbook.

    Keeps [c, b] when f(c) < 0 and [a, c] otherwise.  Returns one
    (a_n, b_n, c_n, f(c_n)) row per step.  Implemented independently of
    the package's iteration so it can serve as an oracle for the
    classical weight mode.
    """
    rows = []
    a_n, b_n = Fraction(a), Fraction(b)
    for _ in range(steps):
        c = (a_n + b_n) / 2
        f_c = eval_exact(f, c)
        rows.append((a_n, b_n, c, f_c))
        if f_c < 0:
            a_n = c
        else:
            b_n = c
    return rows


@dataclass(frozen=True)
class CorpusFunction:
    name: str
    expr: FunctionExpr
    a: Fraction
    b: Fraction
    root: Fraction  # where the band-active linear branch crosses zero


def _rat_between(rng: random.Random, lo: Fraction, hi: Fraction, max_den: int) -> Fraction:
    """Uniform-ish rational in [lo, hi] with denominator <= max_den."""
    den = rng.randint(1, max_den)
    lo_n = math.ceil(lo * den)
    hi_n = math.floor(hi * den)
    if lo_n > hi_n:
        return Fraction(lo_n, den)
    return Fraction(rng.randint(lo_n, hi_n), den)


def _const(q: Fraction) -> RationalConst:
    return RationalConst(Fraction(q))


def _poly(coeffs: List[Fraction]) -> FunctionExpr:
    """AST for sum coeffs[k] * x^k, lowest degree first."""
    terms: List[FunctionExpr] = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            terms.append(_const(c))
        elif k == 1:
            terms.append(Mul(_const(c), X))
        else:
            terms.append(Mul(_const(c), Pow(X, k)))
    if not terms:
        return _const(Fraction(0))
    node = terms[0]
    for term in terms[1:]:
        node = Add(node, term)
    return node


def _positive_quartic(rng: random.Random) -> FunctionExpr:
    """q(x)^2 + m with deg q <= 2 and m >= 1/2: a quartic >= 1/2 everywhere."""
    qa = _rat_between(rng, Fraction(-2), Fraction(2), 6)
    qb = _rat_between(rng, Fraction(-2), Fraction(2), 6)
    qc = _rat_between(rng, Fraction(-2), Fraction(2), 6)
    m = _rat_between(rng, Fraction(1, 2), Fraction(3), 8)
    return _poly(
        [
            qc * qc + m,
            2 * qb * qc,
            2 * qa * qc + qb * qb,
            2 * qa * qb,
            qa * qa,
        ]
    )


def _line(rng: random.Random, a: Fraction, b: Fraction) -> Tuple[FunctionExpr, Fraction]:
    """s * (x - z) with slope s in [3, 30] and root z well inside (a, b)."""
    width = b - a
    s = _rat_between(rng, Fraction(3), Fraction(30), 5)
    z = _rat_between(rng, a + width / 5, b - width / 5, 60)
    return Mul(_const(s), Sub(X, _const(z))), z


def _candidate(rng: random.Random, index: int) -> CorpusFunction:
    a = -_rat_between(rng, Fraction(1, 2), Fraction(3), 4)
    b = _rat_between(rng, Fraction(1, 2), Fraction(3), 4)
    template = index % 5
    line, z = _line(rng, a, b)
    if template == 0:
        expr = Min(_positive_quartic(rng), line)
        root = z
    elif template == 1:
        expr = Max(Mul(_const(Fraction(-1)), _positive_quartic(rng)), line)
        root = z
    elif template == 2:
        expr = Min(_positive_quartic(rng), Max(Mul(_const(Fraction(-1)), _positive_quartic(rng)), line))
        root = z
    elif template == 3:
        line2, z2 = _line(rng, a, b)
        expr = Min(line, line2)
        root = max(z, z2)
    else:
        line2, z2 = _line(rng, a, b)
        expr = Max(line, line2)
        root = min(z, z2)
    return CorpusFunction(f"corpus-{index:03d}", expr, a, b, root)


def _acceptable(fn: CorpusFunction, steps: int) -> bool:
    # Endpoint signs must bracket, and no classical midpoint f-value may
    # be exactly zero (the classical-mode comparisons want a total sign).
    if not (eval_exact(fn.expr, fn.a) < 0 < eval_exact(fn.expr, fn.b)):
        return False
    return all(f_c != 0 for _, _, _, f_c in textbook_bisection(fn.expr, fn.a, fn.b, steps))


def make_corpus(seed: int, count: int, steps: int = 30) -> List[CorpusFunction]:
    """Deterministic corpus of sign-bracketing min/max piecewise polynomials."""
    rng = random.Random(seed)
    out: List[CorpusFunction] = []
    for index in range(count):
        for _ in range(200):
            fn = _candidate(rng, index)
            if _acceptable(fn, steps):
                out.append(fn)
                break
        else:
            raise AssertionError(f"corpus generation stalled at index {index}")
    return out
