"""Mechanical checks on exact traces.

The central claim about the iteration is a per-step disjunction: at
every step m, either some midpoint already seen is an approximate root
(|f(c_j)| < epsilon for some j <= m), or the current endpoints straddle
(f(a_m) < 0 < f(b_m)).  On an exact trace every instance is decidable,
so :func:`check_claim` re-evaluates the function at recorded points and
classifies each step with no tolerance anywhere.  A trace produced by
the float backend is refused outright: rounded comparisons can neither
confirm nor refute the claim.

Two further checks are independent of the iteration: a continuity
budget that certifies the hypotheses |x - c_m| < delta routinely used
with a modulus of continuity, and a brute-force grid search that finds
approximate roots with no reference to the iteration at all.

The grid search writes every grid point as u/den over one common
denominator.  When each divisor in f is a nonzero constant, f at those
points is N(u)/s for one integer scale s, so :func:`grid_oracle` compares
|N| with epsilon * s in integers.  It skips every run of points whose
integer enclosure of N lies outside that band and scans the rest as
integer columns, left first; only the reported point becomes a
Fraction, with the value N/s read off its column, so the scan never
compiles the exact evaluator.  Each polynomial branch of f is one
kernel: its column and its enclosure are Horner's rule on integer
coefficients, the enclosure in interval arithmetic.  A function with an
x-dependent or zero divisor is evaluated point by point instead.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import compress, count, repeat
from math import gcd, lcm
from operator import add, mul

from .core import EXACT, BackendNotExact, StepRecord, Trace, _is_witness, _require_int, cauchy_bound
from .funcdsl import Abs, Div, FunctionExpr, Max, Min, Mul, Neg, Pow, Sub, Var
from .funcdsl import _integer_terms, _lower, eval_exact
from .numerics import format_rational, scalar_text
from .record import Record, init_field

# The package lists the public names, to load this module on first use of one.
from . import _VERIFIER_NAMES as __all__


class WitnessFound(Record):
    """Some midpoint up to this step is an approximate root: ``value`` is f(c_j), re-evaluated."""

    __slots__ = ("j", "value")

    def __init__(self, j: int, value: Fraction):
        init_field(self, "j", j)
        init_field(self, "value", value)


class SignsStraddle(Record):
    """The step's endpoints bracket a sign change: f(a_m) < 0 < f(b_m)."""

    __slots__ = ("f_a_m", "f_b_m")

    def __init__(self, f_a_m: Fraction, f_b_m: Fraction):
        init_field(self, "f_a_m", f_a_m)
        init_field(self, "f_b_m", f_b_m)


class Violation(Record):
    """Neither disjunct holds; the trace does not come from this iteration."""

    __slots__ = ("detail",)

    def __init__(self, detail: str):
        init_field(self, "detail", detail)


ClaimCase = WitnessFound | SignsStraddle | Violation


class ClaimOutcome(Record):
    __slots__ = ("m", "case")

    def __init__(self, m: int, case: ClaimCase):
        init_field(self, "m", m)
        init_field(self, "case", case)


class WitnessKind(Enum):
    # An approximate root can be certified three ways: a recorded
    # midpoint, the run's limit estimate, or a grid point found with no
    # iteration at all.
    MIDPOINT = "midpoint"
    LIMIT = "limit"
    GRID = "grid"


class WitnessCertificate(Record):
    """A point together with its re-evaluated function value.

    For MIDPOINT and GRID certificates |f_x| < epsilon holds by
    construction; ``index`` is the step or grid index.  A LIMIT
    certificate carries no such guarantee, it names the candidate the
    run converged toward.
    """

    __slots__ = ("kind", "x", "f_x", "index")

    def __init__(self, kind: WitnessKind, x: Fraction, f_x: Fraction, index: int | None = None):
        self._init(kind, x, f_x, index)


class ContinuityBudget(Record):
    """Exact comparisons backing a delta-based continuity argument.

    ``limit_gap_ok``: (b - a) / 2^(m-1) < delta / 2, a certified
    stand-in for |limit - c_m| (the true gap is at most this width).
    ``halfwidth_ok``: (b - a) / 2^m < delta / 2, so every point of the
    step-(m+1) window is within delta/2 of c_m.  Both being true places
    the limit and the window within delta of each other around c_m.
    """

    __slots__ = ("delta", "m", "limit_gap_ok", "halfwidth_ok")

    def __init__(self, delta: Fraction, m: int, limit_gap_ok: bool, halfwidth_ok: bool):
        self._init(delta, m, limit_gap_ok, halfwidth_ok)

    @property
    def passed(self) -> bool:
        return self.limit_gap_ok and self.halfwidth_ok


def _require_exact(trace: Trace) -> None:
    if trace.config.backend is not EXACT:
        raise BackendNotExact(
            "claim checking needs exact arithmetic; this trace was "
            f"computed under the {trace.config.backend.name} backend"
        )


def _earliest_witness(trace: Trace, f: FunctionExpr) -> Iterator[tuple[StepRecord, WitnessFound | None]]:
    """Yield each step with the earliest midpoint witness up to it, or None.

    f(c_n) is evaluated one step at a time, and no longer once a witness
    is found, so a caller that evaluates more per step keeps step order.
    """
    epsilon = trace.config.epsilon
    witness: WitnessFound | None = None
    for rec in trace.steps:
        if witness is None:
            f_c = eval_exact(f, rec.c_n)
            if _is_witness(f_c, epsilon):
                witness = WitnessFound(j=rec.n, value=f_c)
        yield rec, witness


def check_claim(trace: Trace, f: FunctionExpr) -> list[ClaimOutcome]:
    """Classify every step of an exact trace against the disjunction.

    The function is re-evaluated at the recorded points (midpoints for
    the witness disjunct, endpoints for the straddle disjunct), so a
    trace with tampered f-values still verifies against the function
    itself.  The witness case wins when both disjuncts hold.

    Raises:
        BackendNotExact: for float traces.
    """
    _require_exact(trace)
    outcomes: list[ClaimOutcome] = []
    for rec, witness in _earliest_witness(trace, f):
        if witness is not None:
            outcomes.append(ClaimOutcome(m=rec.n, case=witness))
            continue
        f_a = eval_exact(f, rec.a_n)
        f_b = eval_exact(f, rec.b_n)
        if f_a < 0 < f_b:
            outcomes.append(ClaimOutcome(m=rec.n, case=SignsStraddle(f_a, f_b)))
        else:
            outcomes.append(
                ClaimOutcome(
                    m=rec.n,
                    case=Violation(
                        f"step {rec.n}: no midpoint witness up to here and "
                        f"f({format_rational(rec.a_n)}) = {format_rational(f_a)}, "
                        f"f({format_rational(rec.b_n)}) = {format_rational(f_b)} "
                        "do not straddle"
                    ),
                )
            )
    return outcomes


def extract_witness(trace: Trace, f: FunctionExpr) -> WitnessCertificate:
    """Earliest midpoint witness, else the limit estimate as a candidate.

    Raises:
        BackendNotExact: for float traces.
    """
    _require_exact(trace)
    found = next((w for _, w in _earliest_witness(trace, f) if w is not None), None)
    return _witness_certificate(trace, f, found)


def _witness_certificate(trace: Trace, f: FunctionExpr, found: WitnessFound | None) -> WitnessCertificate:
    """The MIDPOINT certificate of ``found``, else the limit estimate as a candidate.

    ``found`` is the earliest midpoint witness, as the last outcome of
    :func:`check_claim` carries it, or None when there is none.
    """
    if found is not None:
        x = next(rec.c_n for rec in trace.steps if rec.n == found.j)
        return WitnessCertificate(kind=WitnessKind.MIDPOINT, x=x, f_x=found.value, index=found.j)
    x = trace.limit_estimate
    return WitnessCertificate(kind=WitnessKind.LIMIT, x=x, f_x=eval_exact(f, x))


def continuity_budget_check(trace: Trace, delta: Fraction, m: int) -> ContinuityBudget:
    """Compare the step-m window against delta/2, exactly.

    Raises:
        BackendNotExact: for float traces.
        TypeError: unless ``m`` is an int.
        ValueError: if ``delta <= 0`` or ``m`` is not a recorded step.
    """
    _require_exact(trace)
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {scalar_text(delta)}")
    _require_int("m", m)
    if not 1 <= m <= len(trace.steps):
        raise ValueError(
            f"m = {scalar_text(m)} is not a recorded step (trace has {len(trace.steps)})"
        )
    width = trace.config.original_width
    half_delta = delta / 2
    return ContinuityBudget(
        delta=delta,
        m=m,
        limit_gap_ok=cauchy_bound(m, width) < half_delta,
        halfwidth_ok=width / 2**m < half_delta,
    )


# ---------------------------------------------------------------------------
# Grid columns (see the module docstring).  _compile_grid lowers a tree
# with funcdsl's one walk into one C-level ``map`` per node over a block
# of numerators u, aligning scales by their lcm.  Each node's enclosure
# is interval arithmetic over the numerators at its own scale (Moore,
# Interval Analysis, 1966).  A grid pair is ((column, enclose, s), const).
# The walk hands each polynomial branch to _grid_kernel instead, whose
# column is a chain of maps and whose enclosure is interval Horner.


class _NoColumn(Exception):
    """A divisor depends on x or is zero: scan point by point."""


def _magnitude(lo: int, hi: int):
    """The enclosure of |N| from the enclosure [lo, hi] of N."""
    if lo >= 0:
        return lo, hi
    return (-hi, -lo) if hi <= 0 else (0, max(-lo, hi))


def _power(lo: int, hi: int, k: int):
    """The enclosure of N^k, k >= 1, from the enclosure [lo, hi] of N."""
    if not k & 1:
        lo, hi = _magnitude(lo, hi)
    return lo**k, hi**k


def _grid_times(f, e, m: int, c=None):
    """``(column, enclose)`` of ``f`` times the integer ``m``.

    The column is an endless ``repeat`` if ``f`` is the constant ``c``.
    """
    if c is not None:
        n = c.numerator * m
        return (lambda us: repeat(n)), (lambda lo, hi: (n, n))
    if m == 1:
        return f, e

    def enclose(lo, hi):
        lo, hi = e(lo, hi)
        return (lo * m, hi * m) if m > 0 else (hi * m, lo * m)

    return (lambda us: map(mul, f(us), repeat(m))), enclose


def _grid_const(c: Fraction):
    n = c.numerator
    return ((lambda us: repeat(n, len(us))), (lambda lo, hi: (n, n)), c.denominator), c


def _grid_fold(code):
    f, _, s = code
    return _grid_const(Fraction(next(f(range(1))), s))


def _grid_node(den: int, expr: FunctionExpr, path: tuple[str, ...], kids):
    """The grid pair for one node but a constant on the points x = u/den (see _lower)."""
    kind = type(expr)
    if kind is Var:
        return ((lambda us: us), (lambda lo, hi: (lo, hi)), den), None
    (f, e, s), c = kids[0]
    if kind is Pow:
        k = expr.exponent
        if k == 0:
            return _grid_const(Fraction(1))
        enclose = lambda lo, hi: _power(*e(lo, hi), k)
        return ((lambda us: map(pow, f(us), repeat(k))), enclose, s**k), None
    if kind is Neg:
        return (*_grid_times(f, e, -1), s), None
    if kind is Abs:
        return ((lambda us: map(abs, f(us))), (lambda lo, hi: _magnitude(*e(lo, hi))), s), None
    (g, h, t), d = kids[1]
    if kind is Div:
        if d is None or d == 0:
            raise _NoColumn
        # u / d is u * (1/d); the Fraction moves d's sign to the numerator.
        kind, d = Mul, 1 / d
    if kind is Mul:
        if c is None and d is None:
            def enclose(lo, hi):
                a, b = e(lo, hi)
                p, q = h(lo, hi)
                products = a * p, a * q, b * p, b * q
                return min(products), max(products)

            return ((lambda us: map(mul, f(us), g(us))), enclose, s * t), None
        if d is None:
            d, f, e, s = c, g, h, t
        s *= d.denominator
        m = gcd(d.numerator, s)
        return (*_grid_times(f, e, d.numerator // m), s // m), None
    scale = lcm(s, t)
    f, e = _grid_times(f, e, scale // s, c)
    # f - g is f + (-1) g; add, min and max are monotone in both operands.
    g, h = _grid_times(g, h, -(scale // t) if kind is Sub else scale // t, d)
    op = min if kind is Min else max if kind is Max else add

    def enclose(lo, hi):
        a, b = e(lo, hi)
        p, q = h(lo, hi)
        return op(a, p), op(b, q)

    return ((lambda us: map(op, f(us), g(us))), enclose, scale), None


def _grid_kernel(den: int, terms):
    """``(column, enclose, s)`` for the polynomial sum of c_k x^k over ``terms``.

    On x = u/den it is N(u)/s with N(u) = sum of A_k u^k, where, with L
    and C_k from funcdsl's _integer_terms and D the top exponent, A_k =
    C_k den^(D-k) and s = L den^D.  The column and the enclosure both
    follow Horner's rule, stepping over each gap in the exponents with
    one power: the column as chained maps, the enclosure in interval
    arithmetic over [u_lo, u_hi].
    """
    if not any(terms):
        return _grid_const(terms.get(0, Fraction(0)))[0]
    scale, coeffs = _integer_terms(terms)
    top, lead = coeffs[0]
    low = coeffs[-1][0]
    # (gap, A_e) from each exponent down to the next, e, with den^(D-e)
    # in power; a last (low, 0) multiplies by u^low when x divides N.
    steps = []
    power = 1
    for (k, _), (e, c) in zip(coeffs, coeffs[1:]):
        power *= den ** (k - e)
        steps.append((k - e, c * power))
    if low:
        steps.append((low, 0))

    def column(us):
        col = repeat(lead)  # ended by the first product with us
        for gap, a in steps:
            col = map(mul, col, us if gap == 1 else map(pow, us, repeat(gap)))
            if a:
                col = map(add, col, repeat(a))
        return col

    def enclose(lo, hi):
        a = b = lead
        for gap, c in steps:
            p, q = (lo, hi) if gap == 1 else _power(lo, hi, gap)
            products = a * p, a * q, b * p, b * q
            a, b = min(products) + c, max(products) + c
        return a, b

    return column, enclose, scale * den**top


def _compile_grid(expr: FunctionExpr, den: int):
    """``(fn, enclose, s)`` tabulating ``expr`` on the points x = u/den, or None.

    ``fn(us)`` maps a block of integer numerators ``us`` (a ``range``)
    to an iterator over the integers N with expr(u/den) = N/s, for one
    scale s > 0 fixed here.  ``enclose(u_lo, u_hi)`` is a pair of
    integers (lo, hi) with lo <= N(u) <= hi for every integer u in
    [u_lo, u_hi].  None when a divisor depends on x or is zero, or a
    subtree without x divides by zero: those trees are evaluated point
    by point, where the error names its x and node.
    """
    try:
        return _lower(expr, (), partial(_grid_node, den), _grid_fold, partial(_grid_kernel, den))[0]
    except _NoColumn:
        return None


# Points per leaf of the grid descent: a range this short is scanned,
# not split.  On the benchmark's grid-scan cases 8 scans alike and 32
# slightly slower; trees whose enclosures never exclude favor longer leaves.
_GRID_LEAF = 16


def grid_oracle(
    f: FunctionExpr,
    a: Fraction,
    b: Fraction,
    epsilon: Fraction,
    grid_n: int,
) -> WitnessCertificate | None:
    """Scan a + k(b - a)/grid_n for k = 0..grid_n, exactly.

    Returns the first grid point with |f| < epsilon as a GRID
    certificate, or None when the whole grid misses.  Independent of
    the iteration: grid points are exact rationals, so agreement with
    a run's witness is evidence, not circularity.

    When every divisor in f is a nonzero constant, the scan halves index
    ranges left first and skips each one whose integer enclosure of f
    excludes (-epsilon, epsilon), so it returns the same point as a scan
    of every grid point while evaluating few of them.

    Raises:
        TypeError: unless ``grid_n`` is an int.
        ValueError: unless a < b, epsilon > 0, and grid_n >= 1.
        EvalError: if f divides by zero at a grid point scanned.
    """
    a, b, epsilon = Fraction(a), Fraction(b), Fraction(epsilon)
    if not a < b:
        raise ValueError(f"need a < b, got a = {scalar_text(a)}, b = {scalar_text(b)}")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {scalar_text(epsilon)}")
    _require_int("grid_n", grid_n)
    if grid_n < 1:
        raise ValueError(f"grid_n must be at least 1, got {scalar_text(grid_n)}")
    # x_k = (start + k stride) / den: every grid point over one
    # common denominator.
    width = b - a
    den = a.denominator * width.denominator * grid_n
    start = a.numerator * width.denominator * grid_n
    stride = width.numerator * a.denominator
    kernel = _compile_grid(f, den)
    if kernel is None:
        below = -epsilon  # test |f_x| < epsilon as below < f_x < epsilon
        for k in range(grid_n + 1):
            x = Fraction(start + k * stride, den)
            f_x = eval_exact(f, x)
            if below < f_x < epsilon:
                return WitnessCertificate(kind=WitnessKind.GRID, x=x, f_x=f_x, index=k)
        return None
    # f(x_k) = N_k / scale with N_k an integer, so |f(x_k)| < epsilon
    # is |N_k| < epsilon * scale, that is |N_k| <= limit.
    column, enclose, scale = kernel
    limit = -(-epsilon.numerator * scale // epsilon.denominator) - 1
    # Left first over index ranges [k0, k1), each with its parent's
    # enclosure.  A range whose enclosure misses [-limit, limit] holds no
    # hit, so the first hit found is the first hit of the grid.  A leaf,
    # or a range whose enclosure is its parent's (splitting stopped
    # shrinking it), is scanned up to its first hit.
    ranges = [(0, grid_n + 1, None)]
    while ranges:
        k0, k1, outer = ranges.pop()
        u0, u1 = start + k0 * stride, start + k1 * stride
        bounds = lo, hi = enclose(u0, u1 - stride)
        if lo > limit or hi < -limit:
            continue
        if k1 - k0 > _GRID_LEAF and bounds != outer:
            mid = (k0 + k1) // 2
            ranges += (mid, k1, bounds), (k0, mid, bounds)
            continue
        us = range(u0, u1, stride)
        k = next(compress(count(k0), map(limit.__ge__, map(abs, column(us)))), None)
        if k is not None:
            u = start + k * stride
            [n] = column(range(u, u + 1))
            return WitnessCertificate(
                kind=WitnessKind.GRID, x=Fraction(u, den), f_x=Fraction(n, scale), index=k
            )
    return None


# ---------------------------------------------------------------------------
# JSON report (consumed by the CLI's verify subcommand)

def _case_to_json(case: ClaimCase) -> dict:
    if isinstance(case, WitnessFound):
        return {
            "case": "witness",
            "j": case.j,
            "value": format_rational(case.value),
        }
    if isinstance(case, SignsStraddle):
        return {
            "case": "straddle",
            "f_a_m": format_rational(case.f_a_m),
            "f_b_m": format_rational(case.f_b_m),
        }
    return {"case": "violation", "detail": case.detail}


def _witness_to_json(cert: WitnessCertificate) -> dict:
    out = {
        "kind": cert.kind.value,
        "x": format_rational(cert.x),
        "f_x": format_rational(cert.f_x),
    }
    if cert.index is not None:
        out["index"] = cert.index
    return out


def report_to_json(
    trace: Trace,
    outcomes: list[ClaimOutcome],
    witness: WitnessCertificate,
    budget: ContinuityBudget | None = None,
) -> dict:
    """Bundle verification results into one JSON-serializable report."""
    violations = sum(1 for o in outcomes if isinstance(o.case, Violation))
    report = {
        "steps": len(trace.steps),
        "epsilon": format_rational(Fraction(trace.config.epsilon)),
        "mode": trace.config.weight_mode.value,
        "claim": [
            {"m": o.m, **_case_to_json(o.case)} for o in outcomes
        ],
        "witness": _witness_to_json(witness),
        "violations": violations,
        "claim_holds": violations == 0,
    }
    if budget is not None:
        report["continuity_budget"] = {
            "delta": format_rational(budget.delta),
            "m": budget.m,
            "limit_gap_within_half_delta": budget.limit_gap_ok,
            "halfwidth_within_half_delta": budget.halfwidth_ok,
            "passed": budget.passed,
        }
    return report
