"""Trace verification: per-step claim, witnesses, budgets, grid oracle."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interpbisect import (
    FLOAT64,
    BackendNotExact,
    ClaimOutcome,
    EvalError,
    InvalidTolerance,
    ProblemConfig,
    SignsStraddle,
    StepRecord,
    Trace,
    Violation,
    WeightMode,
    WitnessFound,
    WitnessKind,
    check_claim,
    continuity_budget_check,
    eval_exact,
    extract_witness,
    format_rational,
    grid_oracle,
    parse,
    report_to_json,
    run,
    trace_from_jsonl,
    trace_to_jsonl,
)
from reference import (
    SAMPLE_A,
    SAMPLE_B,
    SAMPLE_ROOT,
    SAMPLE_TEXT,
    WalkDivisionByZero,
    textbook_bisection,
    walk_eval,
)
from strategies import eval_trees

F = Fraction


@pytest.fixture()
def float_trace(sample_fn):
    config = ProblemConfig(a=-1.0, b=1.0, epsilon=0.5, max_steps=5, backend=FLOAT64)
    return run(config, sample_fn)


def _hand_trace(config, steps):
    last = steps[-1]
    return Trace(
        config=config,
        steps=tuple(steps),
        limit_estimate=last.c_n,
        limit_error_bound=config.original_width / 2 ** (last.n - 1),
    )


class TestCheckClaim:
    def test_witness_everywhere_on_the_sample(self, sample_fn, sample_trace_half):
        outcomes = check_claim(sample_trace_half, sample_fn)
        assert len(outcomes) == 40
        for m, outcome in enumerate(outcomes, start=1):
            assert outcome.m == m
            assert outcome.case == WitnessFound(j=1, value=F(1, 7))

    def test_straddle_everywhere_without_witness(self):
        # f = x on the asymmetric interval [-1, 2]: midpoints 1/2, -1/4,
        # 1/8, -1/16, 1/32 keep |f| >= 1/32 > 1e-3, so the straddle
        # disjunct must carry every step.
        f = parse("x")
        config = ProblemConfig(
            a=F(-1), b=F(2), epsilon=F(1, 1000), max_steps=5,
            weight_mode=WeightMode.CLASSICAL,
        )
        trace = run(config, f)
        assert [rec.c_n for rec in trace.steps] == [
            F(1, 2), F(-1, 4), F(1, 8), F(-1, 16), F(1, 32),
        ]
        outcomes = check_claim(trace, f)
        for outcome in outcomes:
            assert isinstance(outcome.case, SignsStraddle)
            assert outcome.case.f_a_m < 0 < outcome.case.f_b_m

    def test_straddle_hands_over_to_witness(self):
        f = parse("x")
        config = ProblemConfig(a=F(-1), b=F(2), epsilon=F(1, 10), max_steps=8)
        trace = run(config, f)
        outcomes = check_claim(trace, f)
        kinds = [type(o.case) for o in outcomes]
        first_witness = kinds.index(WitnessFound)
        assert first_witness == 3  # step 4: |f(-1/16)| = 1/16 < 1/10
        assert all(k is SignsStraddle for k in kinds[:first_witness])
        assert all(k is WitnessFound for k in kinds[first_witness:])
        assert outcomes[-1].case == WitnessFound(j=4, value=F(-1, 16))

    def test_reevaluates_instead_of_trusting_recorded_values(self, sample_fn, sample_trace_half):
        # Tamper the recorded f(c_1); the claim verdict must not change,
        # because the checker evaluates f at the recorded points itself.
        first = sample_trace_half.steps[0]
        lied = StepRecord(first.n, first.a_n, first.b_n, first.c_n, F(5), first.d_n)
        tampered = Trace(
            config=sample_trace_half.config,
            steps=(lied,) + sample_trace_half.steps[1:],
            limit_estimate=sample_trace_half.limit_estimate,
            limit_error_bound=sample_trace_half.limit_error_bound,
        )
        outcomes = check_claim(tampered, sample_fn)
        assert outcomes[0].case == WitnessFound(j=1, value=F(1, 7))

    def test_violation_when_neither_disjunct_holds(self):
        f = parse("x")
        config = ProblemConfig(a=F(-1), b=F(1), epsilon=F(1, 2))
        bogus = _hand_trace(
            config, [StepRecord(1, F(2), F(3), F(5, 2), F(5, 2), F(1))]
        )
        outcomes = check_claim(bogus, f)
        assert len(outcomes) == 1
        assert isinstance(outcomes[0].case, Violation)
        assert "step 1" in outcomes[0].case.detail

    def test_violation_is_per_step(self):
        f = parse("x")
        config = ProblemConfig(
            a=F(-1), b=F(2), epsilon=F(1, 1000), max_steps=3,
            weight_mode=WeightMode.CLASSICAL,
        )
        honest = run(config, f)
        broken = StepRecord(2, F(5), F(6), F(11, 2), F(11, 2), F(1))
        tampered = Trace(
            config=config,
            steps=(honest.steps[0], broken, honest.steps[2]),
            limit_estimate=honest.limit_estimate,
            limit_error_bound=honest.limit_error_bound,
        )
        outcomes = check_claim(tampered, f)
        assert isinstance(outcomes[0].case, SignsStraddle)
        assert isinstance(outcomes[1].case, Violation)
        assert isinstance(outcomes[2].case, SignsStraddle)

    def test_refuses_float_traces(self, sample_fn, float_trace):
        with pytest.raises(BackendNotExact):
            check_claim(float_trace, sample_fn)


class TestPinnedEvaluationOrder:
    """Which point's error surfaces first, on forged traces.

    f = 1/x + 1/(x - 1/2) divides by zero at a_1 = 0 (in Add[0]) and at
    c_2 = 1/2 (in Add[1]).  check_claim evaluates step by step, c_n then
    a_n and b_n, so it fails at a_1; extract_witness evaluates midpoints
    only, so it fails at c_2.  A midpoint witness at step 1 (c_1 = 1/4,
    where f = 0) stops all later evaluation.
    """

    F_TEXT = "1/x + 1/(x-1/2)"

    def _forged(self, c_1):
        config = ProblemConfig(a=F(0), b=F(1), epsilon=F(1, 100))
        return _hand_trace(config, [
            StepRecord(1, F(0), F(1), c_1, F(0), F(1, 2)),
            StepRecord(2, F(1, 4), F(3, 4), F(1, 2), F(0), F(1, 2)),
        ])

    def test_check_claim_fails_at_the_earlier_endpoint(self):
        with pytest.raises(EvalError) as info:
            check_claim(self._forged(F(1, 3)), parse(self.F_TEXT))
        assert (info.value.x, info.value.path) == (F(0), ("Add[0]", "Div"))
        assert str(info.value) == "division by zero at x = 0 in node Add[0]/Div"

    def test_extract_witness_fails_at_the_later_midpoint(self):
        with pytest.raises(EvalError) as info:
            extract_witness(self._forged(F(1, 3)), parse(self.F_TEXT))
        assert (info.value.x, info.value.path) == (F(1, 2), ("Add[1]", "Div"))

    def test_a_witness_stops_evaluation(self):
        trace = self._forged(F(1, 4))
        f = parse(self.F_TEXT)
        assert check_claim(trace, f) == [
            ClaimOutcome(m=1, case=WitnessFound(j=1, value=F(0))),
            ClaimOutcome(m=2, case=WitnessFound(j=1, value=F(0))),
        ]
        cert = extract_witness(trace, f)
        assert (cert.kind, cert.x, cert.f_x, cert.index) == (WitnessKind.MIDPOINT, F(1, 4), F(0), 1)


class TestExtractWitness:
    def test_earliest_midpoint_wins(self, sample_fn, sample_trace_third):
        cert = extract_witness(sample_trace_third, sample_fn)
        assert cert.kind is WitnessKind.MIDPOINT
        assert (cert.index, cert.x, cert.f_x) == (1, F(0), F(1, 7))

    def test_midpoint_witness_even_when_value_is_zero(self):
        # c_1 = 0 and f(c_1) = 0 < any epsilon: the earliest-midpoint
        # rule fires at step 1, it never falls through to the limit.
        f = parse("x")
        config = ProblemConfig(
            a=F(-1), b=F(1), epsilon=F(1, 4), max_steps=1,
            weight_mode=WeightMode.CLASSICAL,
        )
        cert = extract_witness(run(config, f), f)
        assert cert.kind is WitnessKind.MIDPOINT
        assert (cert.index, cert.x, cert.f_x) == (1, F(0), F(0))

    def test_limit_candidate_when_no_midpoint_qualifies(self):
        f = parse("x")
        config = ProblemConfig(
            a=F(-1), b=F(2), epsilon=F(1, 4), max_steps=1,
            weight_mode=WeightMode.CLASSICAL,
        )
        cert = extract_witness(run(config, f), f)
        assert cert.kind is WitnessKind.LIMIT
        assert cert.index is None
        assert (cert.x, cert.f_x) == (F(1, 2), F(1, 2))

    def test_refuses_float_traces(self, sample_fn, float_trace):
        with pytest.raises(BackendNotExact):
            extract_witness(float_trace, sample_fn)


class TestContinuityBudget:
    def test_sample_budget_at_delta_eighth(self, sample_trace_half):
        budget = continuity_budget_check(sample_trace_half, F(1, 8), 6)
        # (b-a)/2^6 = 1/32 < 1/16 passes; the conservative limit-gap
        # stand-in (b-a)/2^5 = 1/16 is not strictly below 1/16.
        assert budget.halfwidth_ok is True
        assert budget.limit_gap_ok is False
        assert budget.passed is False

    def test_generous_delta_passes_both(self, sample_trace_half):
        budget = continuity_budget_check(sample_trace_half, F(10), 1)
        assert budget.limit_gap_ok and budget.halfwidth_ok and budget.passed

    def test_tight_delta_fails_both(self, sample_trace_half):
        budget = continuity_budget_check(sample_trace_half, F(1, 64), 3)
        assert not budget.limit_gap_ok
        assert not budget.halfwidth_ok

    def test_deeper_steps_eventually_pass(self, sample_trace_half):
        budget = continuity_budget_check(sample_trace_half, F(1, 8), 8)
        assert budget.passed  # 2/2^7 = 1/64 < 1/16 on both checks

    def test_validation(self, sample_trace_half, sample_fn, float_trace):
        with pytest.raises(ValueError):
            continuity_budget_check(sample_trace_half, F(0), 3)
        with pytest.raises(ValueError):
            continuity_budget_check(sample_trace_half, F(1, 8), 0)
        with pytest.raises(ValueError):
            continuity_budget_check(sample_trace_half, F(1, 8), 41)
        with pytest.raises(BackendNotExact):
            continuity_budget_check(float_trace, F(1, 8), 2)

    @pytest.mark.parametrize("m", [2.5, 2.0, True, "2"])
    def test_m_must_be_an_int(self, sample_trace_half, m):
        with pytest.raises(TypeError, match=r"^m must be an int, got "):
            continuity_budget_check(sample_trace_half, F(1, 8), m)

    def test_a_refused_m_of_any_length_is_printed(self, sample_trace_half):
        # 5,001 digits: past CPython's default limit for int-to-text conversion.
        with pytest.raises(ValueError) as err:
            continuity_budget_check(sample_trace_half, F(1, 8), 10**5000)
        steps = len(sample_trace_half.steps)
        assert str(err.value) == f"m = 1{'0' * 5000} is not a recorded step (trace has {steps})"


class TestGridOracle:
    def test_sample_first_hit_frozen(self, sample_fn):
        cert = grid_oracle(sample_fn, F(-1), F(1), F(1, 3), 1000)
        assert cert is not None
        assert cert.kind is WitnessKind.GRID
        assert (cert.index, cert.x, cert.f_x) == (38, F(-231, 250), F(-79, 250))
        # the hit sits within the band's reach of the true crossing
        assert abs(cert.x - SAMPLE_ROOT) == F(79, 2250)
        assert abs(cert.x - SAMPLE_ROOT) < F(1, 27)

    def test_hit_value_is_re_evaluable(self, sample_fn):
        cert = grid_oracle(sample_fn, F(-1), F(1), F(1, 3), 1000)
        assert eval_exact(sample_fn, cert.x) == cert.f_x
        assert abs(cert.f_x) < F(1, 3)

    def test_column_scan_does_not_compile_the_exact_evaluator(self):
        # The certificate's f_x comes from the integer column, so a freshly
        # parsed tree is compiled once, for the grid, not again for eval_exact.
        f = parse(SAMPLE_TEXT)
        cert = grid_oracle(f, F(-1), F(1), F(1, 3), 1000)
        assert (cert.index, cert.f_x) == (38, F(-79, 250))
        assert type(cert.f_x) is Fraction
        assert not hasattr(f, "_exact_code")

    def test_endpoint_can_be_the_hit(self):
        cert = grid_oracle(parse("x"), F(-1), F(1), F(2), 1)
        assert (cert.index, cert.x) == (0, F(-1))

    def test_exact_zero_counts(self):
        cert = grid_oracle(parse("x"), F(-1), F(1), F(1, 2), 2)
        assert (cert.index, cert.x, cert.f_x) == (1, F(0), F(0))

    def test_miss_returns_none(self):
        assert grid_oracle(parse("x+10"), F(-1), F(1), F(1, 3), 100) is None

    def test_validation(self, sample_fn):
        with pytest.raises(ValueError):
            grid_oracle(sample_fn, F(1), F(-1), F(1, 3), 10)
        with pytest.raises(ValueError):
            grid_oracle(sample_fn, F(-1), F(1), F(0), 10)
        with pytest.raises(ValueError):
            grid_oracle(sample_fn, F(-1), F(1), F(1, 3), 0)

    @pytest.mark.parametrize("grid_n", [True, 2.0, "2"])
    def test_grid_n_must_be_an_int(self, grid_n):
        with pytest.raises(TypeError, match=r"^grid_n must be an int, got "):
            grid_oracle(parse("x"), F(-1), F(1), F(1, 2), grid_n)

    def test_a_refused_grid_n_of_any_length_is_printed(self):
        # 5,001 digits: past CPython's default limit for int-to-text conversion.
        with pytest.raises(ValueError) as err:
            grid_oracle(parse("x"), F(-1), F(1), F(1, 2), -10**5000)
        assert str(err.value) == "grid_n must be at least 1, got -1" + "0" * 5000

    # Divisors that depend on x or are zero take the point-by-point scan,
    # which raises at the first grid point that divides by zero.
    @pytest.mark.parametrize(
        "text,x,path",
        [
            ("1/(x-x)", -1, ("Div",)),
            ("x/(1-1)", -1, ("Div",)),
            ("min(x+2, 1/x)", 0, ("Min[1]", "Div")),
        ],
    )
    def test_division_by_zero_names_point_and_node(self, text, x, path):
        with pytest.raises(EvalError) as err:
            grid_oracle(parse(text), F(-1), F(1), F(1, 2), 2)
        assert err.value.x == x and type(err.value.x) is Fraction
        assert err.value.path == path

    # Hits on either side of k = 128, and at the last grid point.
    @pytest.mark.parametrize(
        "a,b,grid_n,k",
        [
            (-127, 2, 129, 127),
            (-128, 1, 129, 128),
            (-129, 0, 129, 129),
            (-128, 0, 128, 128),
            (-300, 0, 300, 300),
        ],
    )
    def test_hits_at_block_edges(self, a, b, grid_n, k):
        cert = grid_oracle(parse("x"), F(a), F(b), F(1, 2), grid_n)
        assert (cert.kind, cert.index, cert.x, cert.f_x) == (WitnessKind.GRID, k, F(0), F(0))

    @pytest.mark.parametrize("k", [127, 128, 129, 300])
    def test_scaled_hits_at_block_edges(self, k):
        # Constant factors, a constant subtrahend and a min against a
        # constant each change the integer scale; only x_k is within
        # 5/2100 of k/300.
        f = parse(f"7/5*(x - {k}/300) + min(x, 0)")
        cert = grid_oracle(f, F(0), F(1), F(1, 300), 300)
        assert (cert.index, cert.x, cert.f_x) == (k, F(k, 300), F(0))

    # The descent's edge cases, each against a scan of every grid point
    # by walk_eval.  The last two trees subtract a term from itself, so
    # their enclosures are loose: they rule out few ranges or none, and
    # the grid has no hit.
    @pytest.mark.parametrize(
        "text,a,b,epsilon,grid_n,want",
        [
            ("x", 0, 1, F(1, 10**4), 1000, (0, F(0), F(0))),  # hit at k = 0
            ("1 - x", 0, 1, F(1, 10**4), 1000, (1000, F(1), F(0))),  # hit at k = N only
            ("x - 1", 0, 1, F(1, 2), 1, (1, F(1), F(0))),  # N = 1
            ("10 - 10x", 0, 1, F(1, 20), 100, (100, F(1), F(0))),  # N + 1 = 101 points
            ("min(10x - 9, 1)", 0, 1, F(1, 5), 100, (89, F(89, 100), F(-1, 10))),
            ("x + 1/10", 0, 1, F(1, 10), 10, None),  # |f| = epsilon at k = 0
            ("3/7*x - 3/70", 0, 1, F(3, 70), 10, (1, F(1, 10), F(0))),  # |f| = epsilon at k = 0, 2
            ("-abs(x - 1/2)^3 + 1/8", -1, 2, F(1, 10**6), 30, (10, F(0), F(0))),  # abs straddles 0
            ("100x^2 - 100x^2 + 1/5", -3, 3, F(1, 10), 1000, None),
            ("x^9 - x^9 + 1", -3, 3, F(1, 10), 1000, None),
        ],
    )
    def test_descent_edge_cases(self, text, a, b, epsilon, grid_n, want):
        f = parse(text)
        cert = grid_oracle(f, F(a), F(b), epsilon, grid_n)
        got = cert and (cert.index, cert.x, cert.f_x)
        points = [a + (b - a) * F(k, grid_n) for k in range(grid_n + 1)]
        values = [walk_eval(f, x, Fraction) for x in points]
        walked = next(
            ((k, points[k], v) for k, v in enumerate(values) if abs(v) < epsilon), None
        )
        assert got == walked == want

    def test_agrees_with_textbook_bisection_neighborhood(self, sample_fn):
        # the grid hit and the sign-rule bisection both localize the
        # same crossing of the sample function
        cert = grid_oracle(sample_fn, F(-1), F(1), F(1, 3), 1000)
        rows = textbook_bisection(sample_fn, F(-1), F(1), 20)
        a_20, b_20, _, _ = rows[-1]
        assert a_20 <= SAMPLE_ROOT <= b_20
        assert abs(cert.x - SAMPLE_ROOT) < F(1, 27)


@given(
    eval_trees,
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.fractions(min_value=F(1, 12), max_value=6, max_denominator=12),
    st.integers(min_value=1, max_value=300),
    st.fractions(min_value=F(1, 1000), max_value=20, max_denominator=1000),
)
# A constant left of a Sub, under a min: the operand order shows in the hit.
@example(parse("min(1 - x, x/2)"), F(-1), F(2), 200, F(1, 100))
@settings(max_examples=200, deadline=None)
def test_grid_oracle_equals_walk_scan(expr, a, width, grid_n, epsilon):
    # The oracle: f at x_0, x_1, ... by walk_eval, up to the first
    # division by zero, and the first of them below each tolerance.
    points = [a + width * Fraction(k, grid_n) for k in range(grid_n + 1)]
    values = []
    error = None
    for x in points:
        try:
            values.append(walk_eval(expr, x, Fraction))
        except WalkDivisionByZero as exc:
            error = ("error", exc.x, exc.path)
            break
    # The drawn tolerance, and tolerances just above |f| at grid points
    # spread over the scan, so first hits fall anywhere in the grid.
    spread = values[:: max(1, len(values) // 8)]
    for tolerance in [epsilon] + [abs(v) + F(1, 10**9) for v in spread]:
        want = next(
            ((k, points[k], v) for k, v in enumerate(values) if abs(v) < tolerance), error
        )
        try:
            cert = grid_oracle(expr, a, a + width, tolerance, grid_n)
        except EvalError as exc:
            got = ("error", exc.x, exc.path)
        else:
            assert cert is None or cert.kind is WitnessKind.GRID
            got = cert and (cert.index, cert.x, cert.f_x)
        assert got == want


class TestReport:
    def test_shape_and_serializability(self, sample_fn, sample_trace_half):
        outcomes = check_claim(sample_trace_half, sample_fn)
        witness = extract_witness(sample_trace_half, sample_fn)
        budget = continuity_budget_check(sample_trace_half, F(1, 8), 6)
        report = report_to_json(sample_trace_half, outcomes, witness, budget)
        text = json.dumps(report)  # must not raise
        assert '"claim_holds": true' in json.dumps(report, indent=1) or report["claim_holds"]
        assert report["steps"] == 40
        assert report["epsilon"] == "1/2"
        assert report["violations"] == 0
        assert report["witness"] == {"kind": "midpoint", "x": "0/1", "f_x": "1/7", "index": 1}
        assert report["claim"][0] == {"m": 1, "case": "witness", "j": 1, "value": "1/7"}
        assert report["continuity_budget"]["halfwidth_within_half_delta"] is True
        assert report["continuity_budget"]["limit_gap_within_half_delta"] is False
        assert "1/8" == report["continuity_budget"]["delta"]
        assert isinstance(text, str)

    def test_reports_violations(self):
        f = parse("x")
        config = ProblemConfig(a=F(-1), b=F(1), epsilon=F(1, 2))
        bogus = _hand_trace(config, [StepRecord(1, F(2), F(3), F(5, 2), F(5, 2), F(1))])
        outcomes = check_claim(bogus, f)
        witness = extract_witness(bogus, f)
        report = report_to_json(bogus, outcomes, witness)
        assert report["violations"] == 1
        assert report["claim_holds"] is False
        assert report["claim"][0]["case"] == "violation"
        assert "continuity_budget" not in report


def test_long_exact_run_round_trips_and_verifies():
    # 200 exact steps grow the scalars past CPython's 4,300-digit limit on
    # int <-> text conversion; the trace must still write, read back equal,
    # and verify, with the process-wide limit left alone.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    f = parse(SAMPLE_TEXT)
    trace = run(ProblemConfig(a=SAMPLE_A, b=SAMPLE_B, epsilon=F(1, 3), max_steps=200), f)
    assert trace.steps[-1].a_n.denominator.bit_length() > 14_300  # > 4,300 digits
    back = trace_from_jsonl(trace_to_jsonl(trace))
    assert back == trace
    outcomes = check_claim(back, f)
    assert len(outcomes) == 200
    assert not [o for o in outcomes if isinstance(o.case, Violation)]
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


# A 5,000-digit numerator: formatting it with str() in an f-string raises
# CPython's own digit-limit ValueError instead of the intended message.
BIG = F(10**5000 + 1, 3)


@pytest.mark.parametrize(
    "call,error,prefix",
    [
        pytest.param(
            lambda trace: ProblemConfig(a=BIG, b=F(0), epsilon=F(1)),
            ValueError, "need a < b, got a = ", id="config-interval",
        ),
        pytest.param(
            lambda trace: ProblemConfig(a=F(0), b=F(1), epsilon=-BIG),
            InvalidTolerance, "epsilon must be positive, got -", id="config-epsilon",
        ),
        pytest.param(
            lambda trace: ProblemConfig(a=BIG, b=BIG + 1, epsilon=F(1), backend=FLOAT64),
            TypeError, "a must be float under the float backend, got Fraction ",
            id="config-scalar-type",
        ),
        pytest.param(
            lambda trace: continuity_budget_check(trace, -BIG, 1),
            ValueError, "delta must be positive, got -", id="budget-delta",
        ),
        pytest.param(
            lambda trace: grid_oracle(parse("x"), BIG, F(0), F(1), 4),
            ValueError, "need a < b, got a = ", id="grid-interval",
        ),
        pytest.param(
            lambda trace: grid_oracle(parse("x"), F(0), F(1), -BIG, 4),
            ValueError, "epsilon must be positive, got -", id="grid-epsilon",
        ),
    ],
)
def test_messages_past_the_digit_limit(call, error, prefix, sample_trace_half):
    with pytest.raises((ValueError, TypeError)) as err:
        call(sample_trace_half)
    assert type(err.value) is error
    message = str(err.value)
    assert message.startswith(prefix)
    assert format_rational(BIG) in message
