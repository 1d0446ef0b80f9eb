"""Iteration core: weights, steps, runs, trace serialization."""

import copy
import hashlib
import json
import pickle
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interpbisect
from interpbisect import numerics
from interpbisect import (
    EXACT,
    FLOAT64,
    InvalidTolerance,
    ProblemConfig,
    SignPreconditionViolated,
    StepRecord,
    Trace,
    TraceFormatError,
    WeightMode,
    cauchy_bound,
    format_rational,
    parse,
    parse_rational,
    run,
    trace_from_jsonl,
    trace_to_jsonl,
)
from reference import SAMPLE_A, SAMPLE_B, SAMPLE_TEXT

F = Fraction


@pytest.fixture(scope="module")
def sample():
    return parse(SAMPLE_TEXT)


class TestMidpoint:
    def test_examples(self):
        assert EXACT.midpoint(F(-1), F(1)) == F(0)
        assert EXACT.midpoint(F(-13, 14), F(1, 14)) == F(-3, 7)
        assert EXACT.midpoint(F(0), F(1)) == F(1, 2)

    def test_float(self):
        assert FLOAT64.midpoint(0.0, 1.0) == 0.5

    def test_degenerate_interval_message(self):
        # Only the float window update can close the window: in exact
        # arithmetic the width identity keeps b_n - a_n = (b - a) / 2^(n-1) > 0.
        with pytest.raises(ValueError) as err:
            FLOAT64.next_window(2, 1.0, 1.0, 0.0, 2.0)
        assert str(err.value) == "degenerate interval at step 3: [1.0, 1.0]"


class TestWeights:
    def test_interpolation_examples(self):
        assert EXACT.interpolation_weight(F(1, 7), F(1, 3)) == F(13, 14)
        assert EXACT.interpolation_weight(F(1, 7), F(1, 2)) == F(11, 14)
        assert EXACT.interpolation_weight(F(0), F(1, 3)) == F(1, 2)

    def test_saturation_is_exact_at_half_epsilon(self):
        eps = F(1, 3)
        assert EXACT.interpolation_weight(eps / 2, eps) == F(1)
        assert EXACT.interpolation_weight(-eps / 2, eps) == F(0)
        assert EXACT.interpolation_weight(eps, eps) == F(1)
        assert EXACT.interpolation_weight(F(-5), eps) == F(0)

    def test_saturation_is_exact_in_float_too(self):
        assert FLOAT64.interpolation_weight(0.25, 0.5) == 1.0
        assert FLOAT64.interpolation_weight(-0.25, 0.5) == 0.0
        assert FLOAT64.interpolation_weight(0.1, 0.5) == 0.7

    def test_classical(self):
        assert EXACT.classical_weight(F(-3, 10)) == F(0)
        assert EXACT.classical_weight(F(0)) == F(1)
        assert EXACT.classical_weight(F(1, 7)) == F(1)
        assert FLOAT64.classical_weight(-0.5) == 0.0
        assert FLOAT64.classical_weight(0.0) == 1.0

    @given(
        st.fractions(min_value=-10, max_value=10, max_denominator=200),
        st.fractions(min_value=F(1, 100), max_value=5, max_denominator=100),
    )
    @settings(max_examples=300)
    def test_interpolation_range_and_agreement(self, f_c, eps):
        d = EXACT.interpolation_weight(f_c, eps)
        assert F(0) <= d <= F(1)
        if abs(f_c) >= eps / 2:
            assert d == EXACT.classical_weight(f_c)

    @given(
        st.fractions(min_value=-10, max_value=10, max_denominator=100),
        st.fractions(min_value=-10, max_value=10, max_denominator=100),
        st.fractions(min_value=F(1, 50), max_value=5, max_denominator=50),
    )
    @settings(max_examples=300)
    def test_interpolation_lipschitz_in_f(self, u, v, eps):
        du = EXACT.interpolation_weight(u, eps)
        dv = EXACT.interpolation_weight(v, eps)
        assert abs(du - dv) <= abs(u - v) / eps
        if u <= v:
            assert du <= dv


def _step_from_unit_window(d):
    """The step-2 window after [-1, 1] with weight ``d``."""
    return EXACT.next_window(1, F(1), EXACT.midpoint(F(-1), F(1)), d, F(2))


class TestStep:
    def test_left_half_when_saturated_high(self):
        assert _step_from_unit_window(F(1)) == (F(-1), F(0))

    def test_right_half_when_saturated_low(self):
        assert _step_from_unit_window(F(0)) == (F(0), F(1))

    def test_interior_weight_slides_the_window(self):
        assert _step_from_unit_window(F(13, 14)) == (F(-13, 14), F(1, 14))

    @given(
        st.integers(min_value=1, max_value=10),
        st.fractions(min_value=-5, max_value=5, max_denominator=60),
        st.fractions(min_value=F(1, 10), max_value=6, max_denominator=60),
        st.fractions(min_value=0, max_value=1, max_denominator=97),
    )
    @settings(max_examples=300)
    def test_every_step_halves_and_nests(self, n, a_n, width, d):
        b_n = a_n + width / 2 ** (n - 1)
        c = EXACT.midpoint(a_n, b_n)
        a_next, b_next = EXACT.next_window(n, b_n, c, d, width)
        assert b_next - a_next == width / 2**n  # exact halving
        assert a_n <= a_next and b_next <= b_n  # nesting
        # d = 1 keeps [a, c]; d = 0 keeps [c, b]; interior slides between
        assert a_next <= c <= b_next or d in (F(0), F(1))

    @given(
        st.integers(min_value=1, max_value=10),
        st.fractions(min_value=-5, max_value=5, max_denominator=60),
        st.fractions(min_value=F(1, 10), max_value=6, max_denominator=60),
        st.fractions(min_value=0, max_value=1, max_denominator=97),
        st.fractions(min_value=0, max_value=1, max_denominator=97),
    )
    @settings(max_examples=300)
    def test_midpoint_moves_linearly_in_the_weight(self, n, a_n, width, d1, d2):
        b_n = a_n + width / 2 ** (n - 1)
        c = EXACT.midpoint(a_n, b_n)
        m1 = EXACT.midpoint(*EXACT.next_window(n, b_n, c, d1, width))
        m2 = EXACT.midpoint(*EXACT.next_window(n, b_n, c, d2, width))
        assert m1 - m2 == (d2 - d1) * width / 2**n

    @given(
        # n + 1 values: f(c_1), ..., f(c_n) and the replacement for f(c_j).
        st.integers(min_value=2, max_value=11).flatmap(
            lambda size: st.tuples(
                st.integers(min_value=1, max_value=size - 1),
                st.lists(
                    st.fractions(min_value=-3, max_value=3, max_denominator=40),
                    min_size=size,
                    max_size=size,
                ),
            )
        ),
        st.fractions(min_value=-5, max_value=5, max_denominator=30),
        st.fractions(min_value=F(1, 10), max_value=6, max_denominator=30),
        st.fractions(min_value=F(1, 20), max_value=4, max_denominator=30),
    )
    @settings(max_examples=300, deadline=None)
    def test_midpoint_is_lipschitz_in_each_sampled_value(self, j_values, a, width, eps):
        # The sampled values f(c_1), ..., f(c_n) are free inputs here, not
        # evaluations of one f.  Changing f(c_j) alone moves c_{n+1} by at
        # most |change| (b - a) / (epsilon 2^j), with equality when both
        # weights are interior.
        j, (*samples, new) = j_values
        moved = samples[:j - 1] + [new] + samples[j:]

        def last_midpoint(values):
            lo, hi = a, a + width
            for k, f_c in enumerate(values, start=1):
                c = EXACT.midpoint(lo, hi)
                lo, hi = EXACT.next_window(k, hi, c, EXACT.interpolation_weight(f_c, eps), width)
            return EXACT.midpoint(lo, hi)

        change = abs(moved[j - 1] - samples[j - 1])
        shift = abs(last_midpoint(moved) - last_midpoint(samples))
        assert shift <= change * width / (eps * 2**j)
        if all(abs(v[j - 1]) < eps / 2 for v in (samples, moved)):
            assert shift == change * width / (eps * 2**j)


class TestExactPairFormulas:
    """Exact midpoint, weight and step equal the Fraction-operator formulas
    on operands like a deep run's: hundreds of factors of two."""

    @given(
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=-(1 << 400), max_value=1 << 400),
        st.integers(min_value=0, max_value=1 << 40).map(lambda v: 2 * v + 1),
        st.integers(min_value=0, max_value=400),
        st.fractions(min_value=F(1, 10), max_value=6, max_denominator=60),
        st.integers(min_value=1, max_value=1 << 300).flatmap(
            lambda den: st.tuples(st.integers(min_value=0, max_value=den), st.just(den))
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_midpoint_and_step(self, n, num, odd, k, width, d_terms):
        a_n = F(num, odd << k)
        b_n = a_n + width / 2 ** (n - 1)
        d = F(*d_terms)
        c = (a_n + b_n) / 2
        shift = d * width / 2**n
        got_c = EXACT.midpoint(a_n, b_n)
        a_next, b_next = EXACT.next_window(n, b_n, got_c, d, width)
        for got, want in ((got_c, c), (a_next, c - shift), (b_next, b_n - shift)):
            assert type(got) is F
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator)

    @given(
        st.integers(min_value=-(1 << 400), max_value=1 << 400),
        st.integers(min_value=0, max_value=1 << 40).map(lambda v: 2 * v + 1),
        st.integers(min_value=0, max_value=400),
        st.fractions(min_value=F(1, 100), max_value=5, max_denominator=100),
    )
    @settings(max_examples=300, deadline=None)
    def test_interpolation_weight(self, num, odd, k, eps):
        f_c = F(num, odd << k) / (1 << 390)
        want = max(F(0), min(F(1, 2) + f_c / eps, F(1)))
        got = EXACT.interpolation_weight(f_c, eps)
        assert type(got) is F
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


class TestCauchyBound:
    def test_examples(self):
        assert cauchy_bound(1, F(2)) == F(2)
        assert cauchy_bound(2, F(2)) == F(1)
        assert cauchy_bound(6, F(2)) == F(1, 16)

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            cauchy_bound(0, F(2))

    def test_bounds_actual_midpoint_gaps(self, sample):
        config = ProblemConfig(a=SAMPLE_A, b=SAMPLE_B, epsilon=F(1, 3), max_steps=20)
        trace = run(config, sample)
        cs = [rec.c_n for rec in trace.steps]
        width = config.original_width
        for m in range(len(cs)):
            bound = cauchy_bound(m + 1, width)
            for k in range(m, len(cs)):
                assert abs(cs[k] - cs[m]) <= bound


class TestConfigValidation:
    def test_interval_must_be_ordered(self):
        with pytest.raises(ValueError):
            ProblemConfig(a=F(1), b=F(-1), epsilon=F(1, 3))
        with pytest.raises(ValueError):
            ProblemConfig(a=F(1), b=F(1), epsilon=F(1, 3))

    def test_tolerance_positive(self):
        with pytest.raises(InvalidTolerance):
            ProblemConfig(a=F(-1), b=F(1), epsilon=F(0))

    def test_max_steps_at_least_one(self):
        with pytest.raises(ValueError):
            ProblemConfig(a=F(-1), b=F(1), epsilon=F(1, 3), max_steps=0)

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    def test_max_steps_must_be_an_int(self, value):
        with pytest.raises(TypeError, match=r"^max_steps must be an int, got "):
            ProblemConfig(a=F(-1), b=F(1), epsilon=F(1, 3), max_steps=value)

    @pytest.mark.parametrize("value", ["no", 1, 0, None])
    def test_stop_early_must_be_a_bool(self, value):
        with pytest.raises(TypeError, match=r"^stop_early must be a bool, got "):
            ProblemConfig(a=F(-1), b=F(1), epsilon=F(1, 3), stop_early=value)

    def test_scalars_must_match_backend(self):
        with pytest.raises(TypeError):
            ProblemConfig(a=-1.0, b=1.0, epsilon=0.5)  # floats under exact
        with pytest.raises(TypeError):
            ProblemConfig(a=F(-1), b=F(1), epsilon=F(1, 2), backend=FLOAT64)

    def test_original_width(self):
        config = ProblemConfig(a=F(-1), b=F(1), epsilon=F(1, 3))
        assert config.original_width == F(2)


class TestRun:
    def test_sample_first_steps_at_third(self, sample):
        trace = run(ProblemConfig(a=SAMPLE_A, b=SAMPLE_B, epsilon=F(1, 3), max_steps=4), sample)
        s1, s2, s3, s4 = trace.steps
        assert (s1.c_n, s1.f_c_n, s1.d_n) == (F(0), F(1, 7), F(13, 14))
        assert (s2.a_n, s2.b_n) == (F(-13, 14), F(1, 14))
        assert (s2.c_n, s2.f_c_n, s2.d_n) == (F(-3, 7), F(103, 343), F(1))
        assert s3.c_n == F(-19, 28)
        assert s4.c_n == F(-45, 56)

    def test_sample_first_steps_at_half(self, sample):
        trace = run(ProblemConfig(a=SAMPLE_A, b=SAMPLE_B, epsilon=F(1, 2), max_steps=3), sample)
        s1, s2, s3 = trace.steps
        assert (s1.c_n, s1.f_c_n, s1.d_n) == (F(0), F(1, 7), F(11, 14))
        assert (s2.c_n, s2.f_c_n, s2.d_n) == (F(-2, 7), F(73, 343), F(635, 686))
        assert s3.a_n == F(-1027, 1372)

    def test_sign_precondition(self, sample):
        with pytest.raises(SignPreconditionViolated) as err:
            run(ProblemConfig(a=F(-1), b=F(1), epsilon=F(1, 3)), parse("x+10"))
        assert err.value.f_a == F(9) and err.value.f_b == F(11)
        with pytest.raises(SignPreconditionViolated):
            run(ProblemConfig(a=F(-1), b=F(1), epsilon=F(1, 3)), parse("-x-10"))
        # zero at an endpoint violates the strict inequality
        with pytest.raises(SignPreconditionViolated):
            run(ProblemConfig(a=F(0), b=F(1), epsilon=F(1, 3)), parse("x"))

    def test_sign_precondition_message(self):
        with pytest.raises(SignPreconditionViolated) as err:
            run(ProblemConfig(a=F(-1), b=F(1), epsilon=F(1, 3)), parse("x/3+10"))
        assert str(err.value) == "need f(a) < 0 < f(b), got f(a) = 29/3 and f(b) = 31/3"
        big = F(10**5000 + 1, 3)
        err = SignPreconditionViolated(big, F(-1))
        assert str(err) == f"need f(a) < 0 < f(b), got f(a) = {format_rational(big)} and f(b) = -1"

    def test_classical_run_matches_sign_rule(self):
        f = parse("x")
        trace = run(
            ProblemConfig(
                a=F(-1), b=F(1), epsilon=F(1, 100), max_steps=10,
                weight_mode=WeightMode.CLASSICAL,
            ),
            f,
        )
        for rec in trace.steps:
            assert rec.a_n <= 0 <= rec.b_n  # the root never escapes
            assert rec.d_n in (F(0), F(1))
        assert trace.limit_error_bound == F(2) / 2**9

    def test_modes_agree_until_the_weight_goes_interior(self):
        f = parse("x")
        base = dict(a=F(-1), b=F(2), epsilon=F(1, 10), max_steps=8)
        interp = run(ProblemConfig(**base), f).steps
        classic = run(
            ProblemConfig(**base, weight_mode=WeightMode.CLASSICAL), f
        ).steps
        # |f(c_n)| >= eps/2 through step 4, so the runs coincide there
        assert interp[:4] == classic[:4]
        assert (interp[4].a_n, interp[4].c_n, interp[4].f_c_n) == (
            classic[4].a_n,
            classic[4].c_n,
            classic[4].f_c_n,
        )
        assert interp[4].f_c_n == F(1, 32)
        assert interp[4].d_n == F(13, 16)
        assert classic[4].d_n == F(1)
        assert interp[5] != classic[5]

    def test_stop_early(self):
        f = parse("x")
        trace = run(
            ProblemConfig(a=F(-1), b=F(1), epsilon=F(1, 2), stop_early=True), f
        )
        assert trace.stopped_early_at == 1
        assert len(trace.steps) == 1
        assert trace.limit_estimate == F(0)
        assert trace.limit_error_bound == F(2)

    def test_stop_early_off_by_default_runs_all_steps(self, sample):
        trace = run(ProblemConfig(a=SAMPLE_A, b=SAMPLE_B, epsilon=F(1, 3), max_steps=7), sample)
        assert trace.stopped_early_at is None
        assert len(trace.steps) == 7
        assert trace.limit_estimate == trace.steps[-1].c_n

    def test_float_backend_runs_the_same_algorithm(self, sample):
        exact = run(ProblemConfig(a=SAMPLE_A, b=SAMPLE_B, epsilon=F(1, 3), max_steps=20), sample)
        approx = run(
            ProblemConfig(
                a=-1.0, b=1.0, epsilon=float(F(1, 3)), max_steps=20, backend=FLOAT64
            ),
            sample,
        )
        assert isinstance(approx.limit_estimate, float)
        assert approx.limit_estimate == pytest.approx(float(exact.limit_estimate), abs=1e-9)
        for rec_e, rec_f in zip(exact.steps, approx.steps):
            assert rec_f.c_n == pytest.approx(float(rec_e.c_n), abs=1e-9)

    def test_float_resolution_exhaustion_stops_the_run(self, sample):
        # About 54 halvings exhaust binary64 at the sample's root, and the
        # window update refuses the first window with a_n == b_n.  This pins
        # today's behaviour, not the explicit stop the run should make.
        config = ProblemConfig(a=-1.0, b=1.0, epsilon=1 / 3, max_steps=60, backend=FLOAT64)
        with pytest.raises(ValueError, match=r"^degenerate interval at step 56: \["):
            run(config, sample)


class TestTraceJsonl:
    def test_exact_bytes_of_a_short_run(self, sample):
        trace = run(ProblemConfig(a=SAMPLE_A, b=SAMPLE_B, epsilon=F(1, 3), max_steps=2), sample)
        assert trace_to_jsonl(trace) == (
            '{"a":"-1/1","b":"1/1","epsilon":"1/3","backend":"exact",'
            '"mode":"interpolated","max_steps":2}\n'
            '{"n":1,"a_n":"-1/1","b_n":"1/1","c_n":"0/1","f_c_n":"1/7","d_n":"13/14"}\n'
            '{"n":2,"a_n":"-13/14","b_n":"1/14","c_n":"-3/7","f_c_n":"103/343","d_n":"1/1"}\n'
            '{"limit_estimate":"-3/7","limit_error_bound":"1/1"}\n'
        )

    def test_round_trip_exact(self, sample):
        trace = run(ProblemConfig(a=SAMPLE_A, b=SAMPLE_B, epsilon=F(1, 3), max_steps=12), sample)
        assert trace_from_jsonl(trace_to_jsonl(trace)) == trace

    def test_each_denominator_text_is_converted_once(self, sample, monkeypatch):
        # The step lines' reader and the config and final lines' share one
        # memo, so a read converts every value's numerator text and each
        # distinct denominator text once: the last window's denominator,
        # which the limit estimate shares with the last c_n, no second time.
        trace = run(ProblemConfig(a=SAMPLE_A, b=SAMPLE_B, epsilon=F(1, 3), max_steps=40), sample)
        text = trace_to_jsonl(trace)
        values = re.findall(r'"(-?[0-9]+)/([0-9]+)"', text)
        converted = []
        text_int = numerics._text_int
        monkeypatch.setattr(numerics, "_text_int", lambda t: converted.append(t) or text_int(t))
        assert trace_from_jsonl(text) == trace
        assert len(converted) == len(values) + len({den for _, den in values})

    def test_round_trip_float(self, sample):
        trace = run(
            ProblemConfig(a=-1.0, b=1.0, epsilon=1 / 3, max_steps=12, backend=FLOAT64),
            sample,
        )
        again = trace_from_jsonl(trace_to_jsonl(trace))
        assert again == trace
        assert isinstance(again.steps[3].c_n, float)

    def test_round_trip_keeps_early_stop(self):
        trace = run(
            ProblemConfig(a=F(-1), b=F(1), epsilon=F(1, 2), stop_early=True), parse("x")
        )
        text = trace_to_jsonl(trace)
        assert '"stop_early":true' in text
        assert '"stopped_early_at":1' in text
        assert trace_from_jsonl(text) == trace

    def test_float_lines_use_numbers_not_strings(self):
        trace = run(
            ProblemConfig(a=-1.0, b=2.0, epsilon=0.25, max_steps=3, backend=FLOAT64),
            parse("x"),
        )
        head = json.loads(trace_to_jsonl(trace).splitlines()[0])
        assert head["a"] == -1.0 and isinstance(head["a"], float)
        assert head["backend"] == "float"

    @pytest.mark.parametrize(
        "mangle",
        [
            lambda lines: [],  # empty
            lambda lines: lines[:2],  # no final line
            lambda lines: ["not json"] + lines[1:],
            lambda lines: [lines[0].replace("exact", "decimal")] + lines[1:],
            lambda lines: [lines[0]] + [lines[2], lines[1]] + lines[3:],  # order
            lambda lines: [lines[0]] + [lines[1].replace('"n":1', '"n":7')] + lines[2:],
            lambda lines: [lines[0]] + [lines[1].replace('"c_n":"0/1",', "")] + lines[2:],
            lambda lines: [lines[0].replace('"1/3"', "0.3333")] + lines[1:],
            lambda lines: [lines[0].replace('"max_steps":2', '"max_steps":"two"')] + lines[1:],
            lambda lines: ["[1,2,3]"] + lines[1:],
            # A step index must be a JSON integer: true would be written back as True.
            lambda lines: [lines[0]] + [lines[1].replace('"n":1', '"n":true')] + lines[2:],
            lambda lines: [lines[0]] + [lines[1].replace('"n":1', '"n":1.0')] + lines[2:],
            # json refuses an integer past the int <-> text digit limit with a ValueError.
            lambda lines: [lines[0]] + [lines[1].replace('"n":1', '"n":1' + "0" * _DIGIT_LIMIT)]
            + lines[2:],
            # The step count is max_steps, or stopped_early_at under stop_early.
            lambda lines: lines[:2] + lines[3:],  # the last step line removed
            lambda lines: [lines[0].replace('"max_steps":2', '"max_steps":3')] + lines[1:],
            lambda lines: lines[:-1] + [lines[-1][:-1] + ',"stopped_early_at":2}'],
            lambda lines: [lines[0][:-1] + ',"stop_early":true}'] + lines[1:-1]
            + [lines[-1][:-1] + ',"stopped_early_at":1}'],
            lambda lines: [lines[0].replace('"max_steps":2', '"max_steps":1,"stop_early":true')]
            + lines[1:-1] + [lines[-1][:-1] + ',"stopped_early_at":2}'],
        ],
    )
    def test_malformed_traces_are_refused(self, sample, mangle):
        trace = run(ProblemConfig(a=SAMPLE_A, b=SAMPLE_B, epsilon=F(1, 3), max_steps=2), sample)
        lines = trace_to_jsonl(trace).splitlines()
        bad = "\n".join(mangle(lines))
        with pytest.raises(TraceFormatError):
            trace_from_jsonl(bad)

    @pytest.mark.parametrize("name", ["double", ["exact"], None, 1])
    def test_unknown_backend_is_refused(self, sample, name):
        # json.dumps's spaced separators depart at the first field; the
        # writer's own reach the backend's name.
        trace = run(ProblemConfig(a=SAMPLE_A, b=SAMPLE_B, epsilon=F(1, 3), max_steps=2), sample)
        lines = trace_to_jsonl(trace).splitlines()
        head = json.loads(lines[0])
        head["backend"] = name
        for separators, key in (((", ", ": "), "a"), ((",", ":"), "backend")):
            with pytest.raises(TraceFormatError) as err:
                trace_from_jsonl("\n".join([json.dumps(head, separators=separators)] + lines[1:]))
            assert str(err.value) == f"line 1: config line departs from the writer's form at {key!r}"

    @pytest.mark.parametrize(
        "key,value,why",
        [
            ("max_steps", 2.5, "max_steps must be an int, got float"),
            ("max_steps", True, "max_steps must be an int, got bool"),
            ("stop_early", "no", "stop_early must be a bool, got str"),
            ("stop_early", 1, "stop_early must be a bool, got int"),
        ],
    )
    def test_head_flags_keep_their_types(self, sample, key, value, why):
        # The writer writes max_steps as digits and stop_early only as true.
        # json.dumps's spaced separators depart at the first field; with the
        # writer's own, the line departs where the flag's value starts: a
        # digit prefix of 2.5 still reads as max_steps, and stop_early is
        # an optional suffix after it.
        trace = run(ProblemConfig(a=SAMPLE_A, b=SAMPLE_B, epsilon=F(1, 3), max_steps=2), sample)
        lines = trace_to_jsonl(trace).splitlines()
        head = json.loads(lines[0])
        head[key] = value
        where = "at 'max_steps'" if value is True else "after 'max_steps'"
        for separators, departs in (((", ", ": "), "at 'a'"), ((",", ":"), where)):
            with pytest.raises(TraceFormatError) as err:
                trace_from_jsonl("\n".join([json.dumps(head, separators=separators)] + lines[1:]))
            assert str(err.value) == f"line 1: config line departs from the writer's form {departs}", why

    @pytest.mark.parametrize(
        "text,expected",
        [
            # Fraction reads underscores from Python 3.11 on.
            ("1_0/4", F(5, 2) if sys.version_info >= (3, 11) else None),
            (" 1/2", F(1, 2)),
            ("+1/2", F(1, 2)),
            ("\u0663/4", F(3, 4)),
            ("1/0", None),
            ("-/3", None),
            ("--1/2", None),
            ("1/-2", None),
            ("2/4", F(1, 2)),
            ("-0/5", F(0)),
        ],
        ids=repr,
    )
    def test_step_text_reads_as_parse_rational_does(self, text, expected):
        # Each text in f_c_n of both steps.  A step line takes only the
        # writer's num/den in lowest terms, so each is refused at the first
        # one.  parse_rational, which reads the CLI's rational flags, still
        # reads a text as ``expected``, or refuses it (None).
        trace = run(ProblemConfig(a=F(-1), b=F(1), epsilon=F(1, 3), max_steps=2), parse("x"))
        lines = trace_to_jsonl(trace).splitlines()
        for i in (1, 2):
            step = json.loads(lines[i])
            step["f_c_n"] = text
            lines[i] = json.dumps(step, separators=(",", ":"))
        with pytest.raises(TraceFormatError) as err:
            trace_from_jsonl("\n".join(lines))
        assert str(err.value) == "line 2: step line departs from the writer's form at 'f_c_n'"
        if expected is None:
            with pytest.raises(ValueError):
                parse_rational(text)
        else:
            assert parse_rational(text) == expected

    @pytest.mark.parametrize(
        "line,key", [(0, '"mode"'), (0, '"a"'), (0, '"max_steps"'), (-1, '"limit_error_bound"')]
    )
    def test_missing_key_names_its_line_once(self, sample, line, key):
        trace = run(ProblemConfig(a=SAMPLE_A, b=SAMPLE_B, epsilon=F(1, 3), max_steps=2), sample)
        lines = trace_to_jsonl(trace).splitlines()
        lines[line] = lines[line].replace(key, '"other"')
        with pytest.raises(TraceFormatError) as err:
            trace_from_jsonl("\n".join(lines))
        where = "line 1: config" if line == 0 else "line 4: final"
        assert str(err.value) == f"{where} line departs from the writer's form at {key[1:-1]!r}"

    @pytest.mark.parametrize("line,key", [(0, '"a":-1.0'), (-1, '"limit_error_bound":1.0')])
    def test_float_integer_past_the_float_range_names_its_line(self, line, key):
        # The writer writes a float with a fraction part or an exponent, never as an integer.
        trace = run(ProblemConfig(a=-1.0, b=1.0, epsilon=1 / 3, max_steps=2, backend=FLOAT64), parse("x"))
        lines = trace_to_jsonl(trace).splitlines()
        lines[line] = lines[line].replace(key, key[:-2] + "0" * 400)
        with pytest.raises(TraceFormatError) as err:
            trace_from_jsonl("\n".join(lines))
        where = "line 1: config" if line == 0 else "line 4: final"
        name = key.split('"')[1]
        assert str(err.value) == f"{where} line departs from the writer's form at {name!r}"

    def test_lines_are_numbered_as_in_the_file(self, sample):
        trace = run(ProblemConfig(a=SAMPLE_A, b=SAMPLE_B, epsilon=F(1, 3), max_steps=4), sample)
        text = trace_to_jsonl(trace)
        lines = text.splitlines()
        lines[3] = lines[3].replace('"n":3', '"n":9')
        with pytest.raises(TraceFormatError, match=r"^line 4: step index 9 out of order \(expected 3\)$"):
            trace_from_jsonl("\n".join(lines))
        # The writer writes no blank line: one is refused at its own number,
        # before the fault after it.
        for blank in ("", " "):
            with pytest.raises(TraceFormatError, match=r"^line 3: blank line$"):
                trace_from_jsonl("\n".join(lines[:2] + [blank] + lines[2:]))
        with pytest.raises(TraceFormatError, match=r"^line 1: blank line$"):
            trace_from_jsonl("\n" + text)
        # The final newline may be missing, or followed by blank lines.
        for end in ("", "\n", "\n\n \n"):
            assert trace_from_jsonl(text[:-1] + end) == trace

    def test_large_repeated_values_past_the_digit_limit(self):
        # Integers past CPython's int <-> text limit (4,300 digits by
        # default), each text several times: the writer and the reader
        # must convert them exactly, through the memo or not.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
        den = 3 ** (2 * limit) << 9000
        big = F(-(10 ** (limit + 10)) - 7, den)
        small_num = F(1, den)
        wide = F(10 ** (limit + 5) + 1, 7)
        config = ProblemConfig(a=F(-1), b=F(1), epsilon=F(1, 3), max_steps=2)
        steps = (
            StepRecord(1, F(-1), F(1), big, small_num, wide),
            StepRecord(2, big, small_num, big, big, wide),
        )
        trace = Trace(config, steps, limit_estimate=big, limit_error_bound=F(1))
        text = trace_to_jsonl(trace)
        step = json.loads(text.splitlines()[2])
        assert [step[k] for k in ("a_n", "b_n", "c_n", "f_c_n", "d_n")] == [
            format_rational(q) for q in (big, small_num, big, big, wide)
        ]
        assert len(format_rational(big).split("/")[0]) > limit
        assert trace_from_jsonl(text) == trace
        assert trace_to_jsonl(trace_from_jsonl(text)) == text

    def test_pickled_and_copied_traces_keep_their_backend(self, sample):
        trace = run(ProblemConfig(a=SAMPLE_A, b=SAMPLE_B, epsilon=F(1, 3), max_steps=3), sample)
        again = pickle.loads(pickle.dumps(trace))
        assert again == trace and again.config.backend is EXACT
        assert copy.deepcopy(trace).config.backend is EXACT
        assert copy.copy(FLOAT64) is FLOAT64 and pickle.loads(pickle.dumps(FLOAT64)) is FLOAT64

    def test_trace_requires_steps(self):
        config = ProblemConfig(a=F(-1), b=F(1), epsilon=F(1, 3))
        with pytest.raises(ValueError):
            Trace(config=config, steps=(), limit_estimate=F(0), limit_error_bound=F(1))

    def test_step_record_is_plain_data(self):
        rec = StepRecord(1, F(-1), F(1), F(0), F(1, 7), F(13, 14))
        assert rec.c_n == F(0)


# Texts for TestStepGrammar: the writer's output with one character
# replaced, and exact step lines with zero to two faults.
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
_STEP_KEYS = ("n", "a_n", "b_n", "c_n", "f_c_n", "d_n")
_BIG = F(10 ** (_DIGIT_LIMIT + 5) + 1, 3 ** 9000 << 9000)  # past the int <-> text limit


@st.composite
def _written_traces(draw):
    """``trace_to_jsonl`` of a drawn exact or float trace: values of any size, NaN and infinities too."""
    if draw(st.booleans()):
        scalar, backend = F, EXACT
        values = st.fractions() | st.sampled_from([F(0), F(-1, 3 << 70), _BIG])
    else:
        scalar, backend = float, FLOAT64
        values = st.floats()
    count = draw(st.integers(1, 4))
    stopped = draw(st.sampled_from([None, count]))
    config = ProblemConfig(
        a=scalar(-1), b=scalar(1), epsilon=scalar(1) / 3, backend=backend,
        max_steps=count + (draw(st.integers(0, 2)) if stopped else 0), stop_early=bool(stopped),
    )
    steps = tuple(StepRecord(n, *(draw(values) for _ in range(5))) for n in range(1, count + 1))
    trace = Trace(config, steps, draw(values), draw(values), stopped_early_at=stopped)
    return trace_to_jsonl(trace)


@st.composite
def _one_character_replaced(draw):
    """A written trace with one character replaced, and the numbers of the lines that may refuse it.

    That is the replaced character's line; for the config line, also the
    final line of the new text, which checks the step count against
    max_steps and stop_early.
    """
    text = draw(_written_traces())
    i = draw(st.integers(0, len(text) - 1))
    char = draw(st.sampled_from('0123456789-+/.eE "{}:,_nI\n\r\u0663\u2028') | st.characters())
    lineno = text.count("\n", 0, i) + 1
    text = text[:i] + char + text[i + 1:]
    return text, [lineno, text.count("\n")] if lineno == 1 else [lineno]


@st.composite
def _plain_value_texts(draw):
    """``num/den`` texts: the writer's, and others the match takes or nearly takes."""
    num = draw(st.integers(-(10**40), 10**40))
    den = draw(st.integers(1, 10**40))
    return draw(
        st.sampled_from(
            [
                format_rational(F(num, den)),
                f"{num}/{den}",  # often unreduced
                f"{num}/{den << 70}",  # past reduced()'s 64-twos cut-over
                f"{num * 3}/{den * 3 << 5}",
                "2/4",
                "-0/5",
                "0/1",
                f"{'-' * (num < 0)}00{abs(num)}/0{den}",  # leading zeros
                f"-{'7' * (_DIGIT_LIMIT + 3)}/3",  # past the int <-> text limit
                f"1/{'9' * (_DIGIT_LIMIT + 1)}",
            ]
        )
    )


_BAD_VALUE_TEXTS = [
    "1/0", "0/000", "1/", "/2", "\u0663/4", "3/\u0664",
    " 1/2", "+1/2", "1_0/4", "1/-2", "--1/2", "1.5",
]
_BAD_INDEXES = [
    "0{n}", "true", "{n}.0", "{m}", '"{n}"',
    "{n}" + "0" * 17, "{n}" + "0" * 18, "{n}" + "0" * _DIGIT_LIMIT,
]


@st.composite
def _step_lines(draw, n):
    index = str(n)
    values = [f'"{draw(_plain_value_texts())}"' for _ in range(5)]
    comma, colon, end = ",", ":", ""
    order = list(range(6))
    for fault in draw(st.lists(st.integers(0, 5), max_size=2)):
        if fault == 0:
            index = draw(st.sampled_from(_BAD_INDEXES)).format(n=n, m=n + 1)
        elif fault == 1:
            values[draw(st.integers(0, 4))] = f'"{draw(st.sampled_from(_BAD_VALUE_TEXTS))}"'
        elif fault == 2:
            values[draw(st.integers(0, 4))] = draw(st.sampled_from(["1", "null", "[]"]))
        elif fault == 3:
            order = draw(st.permutations(order))
        elif fault == 4:
            comma, colon = draw(st.sampled_from([(", ", ": "), (",", " :")]))
        else:
            end = draw(st.sampled_from([" ", "\t"]))
    parts = list(zip(_STEP_KEYS, [index] + values))
    return "{" + comma.join(f'"{k}"{colon}{v}' for k, v in (parts[i] for i in order)) + "}" + end


@st.composite
def _faulty_step_lines(draw):
    """An exact trace of one to three drawn step lines, and the step lines' numbers."""
    lines = [draw(_step_lines(n)) for n in range(1, draw(st.integers(1, 3)) + 1)]
    head = (
        '{"a":"-1/1","b":"1/1","epsilon":"1/3","backend":"exact",'
        f'"mode":"interpolated","max_steps":{len(lines)}}}'
    )
    tail = '{"limit_estimate":"0/1","limit_error_bound":"1/1"}'
    return "\n".join([head, *lines, tail]) + "\n", range(2, len(lines) + 2)


class TestStepGrammar:
    """Every trace line, config, step and final, has one grammar: the writer's."""

    @settings(max_examples=400, deadline=None)
    @given(_one_character_replaced() | _faulty_step_lines())
    def test_a_text_is_refused_at_its_line_or_reads_as_written(self, case):
        text, linenos = case
        try:
            trace = trace_from_jsonl(text)
        except TraceFormatError as exc:
            assert int(re.match(r"line ([0-9]+): ", str(exc))[1]) in linenos, str(exc)
            return
        again = trace_to_jsonl(trace)
        if trace.config.backend is EXACT:
            assert again == text
        else:
            # Floats are read by value, and the writer writes each value's
            # repr.  NaN != NaN, so the texts are compared, not the traces.
            assert trace_to_jsonl(trace_from_jsonl(again)) == again

    @pytest.mark.digit_limit
    def test_refusal_reads_values_past_the_digit_limit(self, sample):
        # The 120-step sample trace has values of 2,113 digits: past a
        # 640-digit limit, the reader and its refusal convert them through
        # Decimal.  Each value of step 100, and the limit estimate on the
        # final line, scaled by 10/10 is not in lowest terms.
        config = ProblemConfig(a=SAMPLE_A, b=SAMPLE_B, epsilon=F(1, 3), max_steps=120)
        lines = trace_to_jsonl(run(config, sample)).splitlines()
        cases = [(100, key, "step") for key in _STEP_KEYS[1:]] + [(121, "limit_estimate", "final")]
        for i, key, kind in cases:
            edited = re.sub(f'"{key}":"([-0-9]+)/([0-9]+)"', rf'"{key}":"\g<1>0/\g<2>0"', lines[i])
            assert len(edited) - len(lines[i]) == 2
            with pytest.raises(TraceFormatError) as err:
                trace_from_jsonl("\n".join(lines[:i] + [edited] + lines[i + 1:]))
            assert str(err.value) == f"line {i + 1}: {kind} line departs from the writer's form at {key!r}"


def _sha256(texts):
    return hashlib.sha256("".join(texts).encode()).hexdigest()


def _round_trip(trace):
    """``trace_to_jsonl(trace)``, after checking that it reads back unchanged."""
    text = trace_to_jsonl(trace)
    back = trace_from_jsonl(text)
    assert back == trace
    assert trace_to_jsonl(back) == text
    return text


@pytest.mark.digit_limit
class TestPinnedTraceBytes:
    """sha256 of the concatenated ``trace_to_jsonl`` output of fixed exact runs.

    CHANGES.md records the same values; a change to the arithmetic or the
    text form that moves one byte of an exact trace fails here.
    """

    @pytest.mark.parametrize(
        "steps,digest",
        [
            (40, "e6756820b4d27b2aa8cdcc4c7a280229a5219a5573e6c5dc9cd41cb429f4e5cc"),
            (120, "449b377aeec9377766293b5ef1cf6bd7ff6b1b0b96e6d556770c93eeb4e4b364"),
        ],
    )
    def test_sample(self, sample, steps, digest):
        config = ProblemConfig(a=SAMPLE_A, b=SAMPLE_B, epsilon=F(1, 3), max_steps=steps)
        trace = run(config, sample)
        assert _sha256([_round_trip(trace)]) == digest

    def test_cubic(self):
        # Odd parts of the denominators grow about threefold per step, so
        # the window update aligns large odd parts, not just powers of two.
        config = ProblemConfig(a=F(0), b=F(1), epsilon=F(1), max_steps=7)
        trace = run(config, parse("x^3 - 1/3"))
        assert _sha256([_round_trip(trace)]) == (
            "40a7d3570a814eeb04aedaadc010c50eb3a1184f6ae235a3f7e47ee18a6b99e5"
        )

    def test_corpus(self, corpus_bundle):
        # make_corpus(20260819, 100, steps=30) at epsilon 1/3, 30 steps; for
        # each function the interpolated trace, then the classical one.
        assert (len(corpus_bundle.functions), corpus_bundle.epsilon) == (100, F(1, 3))
        texts = []
        for interpolated, classical in zip(corpus_bundle.interpolated, corpus_bundle.classical):
            assert len(interpolated.steps) == len(classical.steps) == 30
            texts += [_round_trip(interpolated), _round_trip(classical)]
        assert _sha256(texts) == (
            "9706206d7e6c21bc30d23cbc7f521df16b6cca8246218ef31d6212ab888d8f0d"
        )


def _assert_canonical_json_lines(text):
    """Every line is what ``json.dumps`` writes for the value it decodes to."""
    lines = text.splitlines()
    assert text == "\n".join(lines) + "\n"
    for line in lines:
        assert line == json.dumps(json.loads(line), separators=(",", ":"))


@pytest.mark.digit_limit
class TestWriterOracle:
    """``trace_to_jsonl`` against json's own encoder, an independent oracle."""

    @pytest.mark.parametrize("mode", list(WeightMode))
    @pytest.mark.parametrize(
        "text,a,b,epsilon,steps",
        [
            (SAMPLE_TEXT, SAMPLE_A, SAMPLE_B, F(1, 3), 120),
            ("x^3 - 1/3", F(0), F(1), F(1), 7),
        ],
        ids=["sample", "cubic"],
    )
    def test_exact(self, mode, text, a, b, epsilon, steps):
        config = ProblemConfig(a=a, b=b, epsilon=epsilon, max_steps=steps, weight_mode=mode)
        _assert_canonical_json_lines(trace_to_jsonl(run(config, parse(text))))

    def test_corpus(self, corpus_bundle):
        for trace in corpus_bundle.interpolated + corpus_bundle.classical:
            _assert_canonical_json_lines(trace_to_jsonl(trace))

    def test_float(self, sample):
        config = ProblemConfig(a=-1.0, b=1.0, epsilon=1 / 3, max_steps=50, backend=FLOAT64)
        _assert_canonical_json_lines(trace_to_jsonl(run(config, sample)))

    def test_float_infinity(self):
        # x^1000 overflows to inf at every midpoint past 2.
        config = ProblemConfig(a=0.0, b=10.0, epsilon=1 / 3, max_steps=5, backend=FLOAT64)
        text = trace_to_jsonl(run(config, parse("x^1000 - 1")))
        assert '"f_c_n":Infinity' in text
        _assert_canonical_json_lines(text)

    def test_past_the_digit_limit(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
        den = 3 ** (2 * limit) << 9000
        big = F(-(10 ** (limit + 10)) - 7, den)
        config = ProblemConfig(a=F(-1), b=F(1), epsilon=F(1, 3), max_steps=2, stop_early=True)
        steps = (
            StepRecord(1, F(-1), F(1), big, F(1, den), F(10 ** (limit + 5) + 1, 7)),
            StepRecord(2, big, F(1, den), big, big, F(1)),
        )
        trace = Trace(config, steps, limit_estimate=big, limit_error_bound=F(1), stopped_early_at=2)
        text = trace_to_jsonl(trace)
        assert len(text) > 4 * limit
        _assert_canonical_json_lines(text)


def test_public_names():
    # A name joins or leaves the public surface on purpose, with this list.
    assert sorted(interpbisect.__all__) == [
        "Abs", "Add", "BACKENDS", "BackendNotExact", "ClaimOutcome", "ContinuityBudget",
        "Div", "EXACT", "EvalError", "FLOAT64", "FunctionExpr", "InvalidTolerance", "Max",
        "Min", "Mul", "Neg", "ParseError", "Pow", "ProblemConfig", "RationalConst", "Scalar",
        "SignPreconditionViolated", "SignsStraddle", "StepRecord", "Sub", "Trace",
        "TraceFormatError", "Var", "Violation", "WeightMode", "WitnessCertificate",
        "WitnessFound", "WitnessKind", "__version__", "cauchy_bound", "check_claim",
        "continuity_budget_check", "eval_exact", "eval_float", "extract_witness",
        "format_rational", "grid_oracle", "parse", "parse_rational", "reduced",
        "report_to_json", "run", "scalar_text", "to_text", "trace_from_jsonl",
        "trace_to_jsonl",
    ]
