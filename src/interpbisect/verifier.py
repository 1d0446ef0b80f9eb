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
compiles the exact evaluator.  A function with an x-dependent or zero
divisor is evaluated point by point instead.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import compress, count
from typing import Iterator, List, Optional, Tuple, Union

from .core import EXACT, BackendNotExact, StepRecord, Trace, _require_int, cauchy_bound
from .funcdsl import FunctionExpr, _compile_grid, eval_exact
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


ClaimCase = Union[WitnessFound, SignsStraddle, Violation]


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

    def __init__(self, kind: WitnessKind, x: Fraction, f_x: Fraction, index: Optional[int] = None):
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


def _earliest_witness(
    trace: Trace, f: FunctionExpr
) -> Iterator[Tuple[StepRecord, Optional[WitnessFound]]]:
    """Yield each step with the earliest midpoint witness up to it, or None.

    f(c_n) is evaluated one step at a time, and no longer once a witness
    is found, so a caller that evaluates more per step keeps step order.
    """
    epsilon = trace.config.epsilon
    witness: Optional[WitnessFound] = None
    for rec in trace.steps:
        if witness is None:
            f_c = eval_exact(f, rec.c_n)
            if abs(f_c) < epsilon:
                witness = WitnessFound(j=rec.n, value=f_c)
        yield rec, witness


def check_claim(trace: Trace, f: FunctionExpr) -> List[ClaimOutcome]:
    """Classify every step of an exact trace against the disjunction.

    The function is re-evaluated at the recorded points (midpoints for
    the witness disjunct, endpoints for the straddle disjunct), so a
    trace with tampered f-values still verifies against the function
    itself.  The witness case wins when both disjuncts hold.

    Raises:
        BackendNotExact: for float traces.
    """
    _require_exact(trace)
    outcomes: List[ClaimOutcome] = []
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


def _witness_certificate(
    trace: Trace, f: FunctionExpr, found: Optional[WitnessFound]
) -> WitnessCertificate:
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
            f"m = {m} is not a recorded step (trace has {len(trace.steps)})"
        )
    width = trace.config.original_width
    half_delta = delta / 2
    return ContinuityBudget(
        delta=delta,
        m=m,
        limit_gap_ok=cauchy_bound(m, width) < half_delta,
        halfwidth_ok=width / 2**m < half_delta,
    )


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
) -> Optional[WitnessCertificate]:
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
        raise ValueError(f"grid_n must be at least 1, got {grid_n}")
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
    outcomes: List[ClaimOutcome],
    witness: WitnessCertificate,
    budget: Optional[ContinuityBudget] = None,
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
