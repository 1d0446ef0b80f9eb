"""Acceptance suite: one test per shipped criterion, ten in all.

Every test asserts its criterion and also prints a single
``[PASS]``/``[FAIL]`` line; conftest echoes those lines after the
pytest summary so the verdict list is visible in a normal run.

The criteria pin down, with exact arithmetic wherever the backend is
exact: the first iteration steps of the worked sample problem, the
40-step limits at tolerances 1/3 and 1/2, witness extraction, the
window-size budget check, claim verification across the generated
corpus in both weight modes, the structural interval invariants, the
Lipschitz bound on one step as a function of the sampled value,
agreement between the iteration's witnesses and an independent dense
grid scan, and the plotted marker positions in the rendered figure.
"""

from __future__ import annotations

import random
import re
import time
from fractions import Fraction
from typing import Callable, List, Tuple

from interpbisect import (
    EXACT,
    FLOAT64,
    ProblemConfig,
    Trace,
    Violation,
    WitnessKind,
    cauchy_bound,
    check_claim,
    continuity_budget_check,
    eval_exact,
    extract_witness,
    grid_oracle,
    run,
)
from interpbisect.cli import PlotSpec, render_trace_svg

from conftest import ACCEPTANCE_LINES, CORPUS_STEPS
from reference import SAMPLE_A, SAMPLE_B, textbook_bisection

_CONTINUITY_SEED = 20260819
_LIMIT_MARKER_RE = re.compile(
    r'<rect class="limit-marker"[^>]* data-x="([^"]+)" data-y="([^"]+)"/>'
)


def _verdict(number: int, label: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {label} ({detail})"
    print(line)
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def _timed(thunk: Callable[[], object]) -> float:
    start = time.perf_counter()
    thunk()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# 1: the first two steps of the sample problem, exactly, in under a
# millisecond.

def test_criterion_01_first_two_steps_exact_and_fast(sample_fn):
    config = ProblemConfig(
        a=SAMPLE_A, b=SAMPLE_B, epsilon=Fraction(1, 2), max_steps=2
    )
    trace = run(config, sample_fn)
    s1, s2 = trace.steps
    values_ok = (
        s1.c_n == Fraction(0)
        and s1.f_c_n == Fraction(1, 7)
        and s1.d_n == Fraction(11, 14)
        and s2.c_n == Fraction(-2, 7)
        and s2.f_c_n == Fraction(73, 343)
    )
    for _ in range(3):
        run(config, sample_fn)
    best = min(_timed(lambda: run(config, sample_fn)) for _ in range(5))
    ok = values_ok and best < 1e-3
    _verdict(
        1,
        "sample problem at tolerance 1/2, first two steps exact",
        ok,
        f"d_1 = {s1.d_n}, c_2 = {s2.c_n}, f(c_2) = {s2.f_c_n}, "
        f"best of 5 runs {best * 1e3:.3f} ms",
    )


# ---------------------------------------------------------------------------
# 2: 40 steps at tolerance 1/3 land within 1/2000 of -0.8894 and the
# value there is below tolerance, in under a second.

def test_criterion_02_forty_steps_tolerance_third(sample_fn):
    config = ProblemConfig(a=SAMPLE_A, b=SAMPLE_B, epsilon=Fraction(1, 3))
    start = time.perf_counter()
    trace = run(config, sample_fn)
    elapsed = time.perf_counter() - start
    limit = trace.limit_estimate
    f_limit = eval_exact(sample_fn, limit)
    near = abs(limit - Fraction("-0.8894")) <= Fraction(1, 2000)
    below = abs(f_limit) < Fraction(1, 3)
    ok = near and below and elapsed < 1.0
    _verdict(
        2,
        "40 exact steps at tolerance 1/3",
        ok,
        f"limit = {float(limit):.10f}, f(limit) = {float(f_limit):.6f}, "
        f"runtime {elapsed * 1e3:.1f} ms",
    )


# ---------------------------------------------------------------------------
# 3: at tolerance 1/2 the limit sits within 1/2000 of -0.7485 with
# f(limit) > 1/2, and the extracted witness is the first midpoint.

def test_criterion_03_forty_steps_tolerance_half(sample_fn, sample_trace_half):
    limit = sample_trace_half.limit_estimate
    f_limit = eval_exact(sample_fn, limit)
    cert = extract_witness(sample_trace_half, sample_fn)
    ok = (
        abs(limit - Fraction("-0.7485")) <= Fraction(1, 2000)
        and f_limit > Fraction(1, 2)
        and cert.kind is WitnessKind.MIDPOINT
        and cert.index == 1
        and cert.f_x == Fraction(1, 7)
    )
    _verdict(
        3,
        "40 exact steps at tolerance 1/2, witness at step 1",
        ok,
        f"limit = {float(limit):.10f}, f(limit) = {float(f_limit):.6f}, "
        f"witness f(c_1) = {cert.f_x}",
    )


# ---------------------------------------------------------------------------
# 4: the budget check at delta = 1/8, m = 6: the step-6 window 2/2^6 =
# 1/32 beats delta/2 = 1/16 exactly, while the conservative limit-gap
# bound 1/16 does not.

def test_criterion_04_budget_window_check(sample_trace_half):
    budget = continuity_budget_check(sample_trace_half, Fraction(1, 8), 6)
    halfwidth = Fraction(2, 2**6)
    ok = (
        budget.m == 6
        and budget.halfwidth_ok is True
        and halfwidth == Fraction(1, 32)
        and halfwidth < Fraction(1, 16)
        and budget.limit_gap_ok is False
    )
    _verdict(
        4,
        "window budget at delta = 1/8, m = 6",
        ok,
        f"window 1/32 < 1/16 holds, limit gap 1/16 < 1/16 fails as frozen",
    )


# ---------------------------------------------------------------------------
# 5: the per-step claim holds at every step of every corpus trace in
# both weight modes, and building plus checking stays under 30 s.

def test_criterion_05_corpus_claims_verified(corpus_bundle):
    start = time.perf_counter()
    violations = 0
    outcomes_seen = 0
    for fn, trace in zip(corpus_bundle.functions, corpus_bundle.interpolated):
        for outcome in check_claim(trace, fn.expr):
            outcomes_seen += 1
            violations += isinstance(outcome.case, Violation)
    for fn, trace in zip(corpus_bundle.functions, corpus_bundle.classical):
        for outcome in check_claim(trace, fn.expr):
            outcomes_seen += 1
            violations += isinstance(outcome.case, Violation)
    total = corpus_bundle.build_seconds + (time.perf_counter() - start)
    ok = violations == 0 and total < 30.0
    _verdict(
        5,
        "claim verified on 100 functions x 2 weight modes x 30 steps",
        ok,
        f"{outcomes_seen} step claims, {violations} violations, "
        f"{total:.2f} s build+check",
    )


# ---------------------------------------------------------------------------
# 6: structural invariants hold exactly on every corpus trace: widths
# halve by the closed form, windows nest, weights stay in [0, 1],
# midpoints bisect, and midpoints are Cauchy at the stated rate.

def test_criterion_06_structural_invariants(corpus_bundle):
    failures: List[str] = []

    def check(cond: bool, message: str) -> None:
        if not cond and len(failures) < 5:
            failures.append(message)

    traces = list(corpus_bundle.interpolated) + list(corpus_bundle.classical)
    pairs = 0
    for t_index, trace in enumerate(traces):
        width = trace.config.original_width
        steps = trace.steps
        for rec in steps:
            check(
                rec.b_n - rec.a_n == width / 2 ** (rec.n - 1),
                f"trace {t_index} step {rec.n}: width identity broken",
            )
            check(
                rec.c_n == (rec.a_n + rec.b_n) / 2,
                f"trace {t_index} step {rec.n}: midpoint off center",
            )
            check(
                0 <= rec.d_n <= 1,
                f"trace {t_index} step {rec.n}: weight outside [0, 1]",
            )
        for prev, nxt in zip(steps, steps[1:]):
            check(
                nxt.a_n >= prev.a_n and nxt.b_n <= prev.b_n,
                f"trace {t_index} step {nxt.n}: window not nested",
            )
        mids = [rec.c_n for rec in steps]
        for m_index, c_m in enumerate(mids):
            bound = cauchy_bound(m_index + 1, width)
            for c_j in mids[m_index + 1 :]:
                pairs += 1
                check(
                    abs(c_j - c_m) <= bound,
                    f"trace {t_index}: midpoints {m_index + 1} onward "
                    "drift past the Cauchy bound",
                )
    ok = not failures
    _verdict(
        6,
        "interval invariants exact on all 200 corpus traces",
        ok,
        f"{pairs} midpoint pairs within bound"
        + ("" if ok else "; first failures: " + "; ".join(failures)),
    )


# ---------------------------------------------------------------------------
# 7: one step is Lipschitz in the sampled value: changing f(c_n) moves
# the next midpoint by at most |change| * (b - a) / (epsilon 2^n),
# exactly over rationals and within 1e-9 over floats.

def _next_midpoint(bk, n, a, width, f_c, epsilon):
    """c_{n+1} after the step-n window [a, a + width / 2^(n-1)] samples ``f_c``."""
    b = a + width / 2 ** (n - 1)
    return bk.midpoint(
        *bk.next_window(n, b, bk.midpoint(a, b), bk.interpolation_weight(f_c, epsilon), width)
    )


def test_criterion_07_step_lipschitz_in_sample_value():
    rng = random.Random(_CONTINUITY_SEED)
    exact_bad = 0
    for _ in range(1000):
        n = rng.randint(1, 16)
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        width = Fraction(rng.randint(1, 60), rng.randint(1, 12))
        epsilon = Fraction(rng.randint(1, 24), rng.randint(1, 24))
        f_1 = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        f_2 = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        c_1, c_2 = (_next_midpoint(EXACT, n, a, width, f, epsilon) for f in (f_1, f_2))
        if abs(c_1 - c_2) > abs(f_1 - f_2) * width / (epsilon * 2**n):
            exact_bad += 1

    float_bad = 0
    for _ in range(1000):
        n = rng.randint(1, 16)
        a = rng.uniform(-40.0, 40.0)
        width = rng.uniform(0.05, 60.0)
        epsilon = rng.uniform(0.05, 24.0)
        f_1 = rng.uniform(-50.0, 50.0)
        f_2 = rng.uniform(-50.0, 50.0)
        c_1, c_2 = (_next_midpoint(FLOAT64, n, a, width, f, epsilon) for f in (f_1, f_2))
        if abs(c_1 - c_2) > abs(f_1 - f_2) * width / (epsilon * 2**n) + 1e-9:
            float_bad += 1

    ok = exact_bad == 0 and float_bad == 0
    _verdict(
        7,
        "next midpoint Lipschitz in f(c_n)",
        ok,
        f"1000 exact tuples ({exact_bad} over bound), "
        f"1000 float tuples ({float_bad} over bound + 1e-9)",
    )


# ---------------------------------------------------------------------------
# 8: the classical weight reproduces textbook sign-rule bisection row
# for row on the first 50 corpus functions.

def test_criterion_08_classical_mode_is_textbook(corpus_bundle):
    mismatches = 0
    rows_checked = 0
    for fn, trace in zip(
        corpus_bundle.functions[:50], corpus_bundle.classical[:50]
    ):
        rows = textbook_bisection(fn.expr, fn.a, fn.b, CORPUS_STEPS)
        assert len(trace.steps) == len(rows) == CORPUS_STEPS
        for rec, (a_n, b_n, c_n, f_c) in zip(trace.steps, rows):
            rows_checked += 1
            same = (
                rec.a_n == a_n
                and rec.b_n == b_n
                and rec.c_n == c_n
                and rec.f_c_n == f_c
                and rec.d_n in (Fraction(0), Fraction(1))
            )
            mismatches += not same
    ok = mismatches == 0
    _verdict(
        8,
        "classical weight equals textbook bisection on 50 functions",
        ok,
        f"{rows_checked} rows compared, {mismatches} mismatches",
    )


# ---------------------------------------------------------------------------
# 9: an independent 10^4-point grid scan certifies a witness for every
# corpus function at tolerances 1/3 and 1/10, and the iteration's own
# extracted witness re-verifies exactly whenever it names a midpoint.
# A limit candidate whose value is still at or above tolerance is
# recorded but allowed: thirty steps promise a straddle, not that the
# final estimate itself is already a witness.

def test_criterion_09_grid_oracle_agreement(corpus_bundle):
    grid_n = 10_000
    failures: List[str] = []
    midpoint_hits = 0
    limit_hits = 0
    limit_open: List[Tuple[str, Fraction]] = []
    for i, fn in enumerate(corpus_bundle.functions):
        for epsilon in (Fraction(1, 3), Fraction(1, 10)):
            cert = grid_oracle(fn.expr, fn.a, fn.b, epsilon, grid_n)
            if cert is None or not abs(eval_exact(fn.expr, cert.x)) < epsilon:
                failures.append(
                    f"{fn.name}: grid scan found no witness at "
                    f"tolerance {epsilon}"
                )
                continue
            if epsilon == corpus_bundle.epsilon:
                trace = corpus_bundle.interpolated[i]
            else:
                trace = run(
                    ProblemConfig(
                        a=fn.a, b=fn.b, epsilon=epsilon, max_steps=CORPUS_STEPS
                    ),
                    fn.expr,
                )
            witness = extract_witness(trace, fn.expr)
            if witness.kind is WitnessKind.MIDPOINT:
                if witness.f_x == eval_exact(fn.expr, witness.x) and abs(
                    witness.f_x
                ) < epsilon:
                    midpoint_hits += 1
                else:
                    failures.append(
                        f"{fn.name}: midpoint witness fails re-evaluation "
                        f"at tolerance {epsilon}"
                    )
            elif abs(eval_exact(fn.expr, witness.x)) < epsilon:
                limit_hits += 1
            else:
                limit_open.append((fn.name, epsilon))
    ok = not failures
    _verdict(
        9,
        "grid oracle and iteration witnesses agree on 100 x 2 cases",
        ok,
        f"{midpoint_hits} midpoint witnesses re-verified, "
        f"{limit_hits} limit candidates below tolerance, "
        f"{len(limit_open)} left open (allowed), {len(failures)} failures",
    )


# ---------------------------------------------------------------------------
# 10: the rendered figure places the limit marker at the computed
# estimate for both sample runs, readable back from the data
# attributes, and rendering is byte-deterministic.

def test_criterion_10_figure_limit_markers(
    sample_fn, sample_trace_third, sample_trace_half
):
    checks: List[bool] = []
    details: List[str] = []
    cases: List[Tuple[Trace, float, float]] = [
        (sample_trace_third, -0.889, -0.004),
        (sample_trace_half, -0.749, 0.623),
    ]
    for trace, x_ref, y_ref in cases:
        spec = PlotSpec(function=sample_fn, trace=trace)
        svg = render_trace_svg(spec)
        marker = _LIMIT_MARKER_RE.search(svg)
        dots = len(re.findall(r'class="midpoint-dot"', svg))
        if marker is None:
            checks.append(False)
            details.append("limit marker missing")
            continue
        x = float(Fraction(marker.group(1)))
        y = float(Fraction(marker.group(2)))
        checks.append(
            abs(x - x_ref) <= 0.005
            and abs(y - y_ref) <= 0.005
            and dots == 40
            and render_trace_svg(spec) == svg
        )
        details.append(f"marker at ({x:.4f}, {y:.4f}), {dots} dots")
    ok = all(checks)
    _verdict(
        10,
        "figure marker within 0.005 of both frozen estimates",
        ok,
        "; ".join(details),
    )
