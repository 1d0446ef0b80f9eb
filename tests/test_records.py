"""The frozen records: text, equality, immutability, pickling, construction.

One sample of each of the 21 record classes, with its ``repr`` written
out as ``dataclass(frozen=True)`` renders it, so the records keep the
behavior they had as dataclasses.
"""

import copy
import dataclasses
import pickle
import re
from fractions import Fraction

import pytest

from interpbisect import (
    EXACT,
    FLOAT64,
    Abs,
    Add,
    ClaimOutcome,
    ContinuityBudget,
    Div,
    InvalidTolerance,
    Max,
    Min,
    Mul,
    Neg,
    Pow,
    ProblemConfig,
    RationalConst,
    SignsStraddle,
    StepRecord,
    Sub,
    Trace,
    Var,
    Violation,
    WeightMode,
    WitnessCertificate,
    WitnessFound,
    WitnessKind,
    eval_exact,
    eval_float,
    parse,
)
from interpbisect.cli import PlotSpec

F = Fraction
X = Var()
THIRD = RationalConst(F(1, 3))
CONFIG = ProblemConfig(a=F(-1), b=F(1), epsilon=F(1, 3), max_steps=1)
STEP = StepRecord(1, F(-1), F(1), F(0), F(-1, 7), F(0))
TRACE = Trace(CONFIG, (STEP,), F(0), F(2))

CONFIG_TEXT = (
    "ProblemConfig(a=Fraction(-1, 1), b=Fraction(1, 1), epsilon=Fraction(1, 3), "
    "max_steps=1, weight_mode=<WeightMode.INTERPOLATED: 'interpolated'>, "
    f"backend={EXACT!r}, stop_early=False)"
)
STEP_TEXT = (
    "StepRecord(n=1, a_n=Fraction(-1, 1), b_n=Fraction(1, 1), c_n=Fraction(0, 1), "
    "f_c_n=Fraction(-1, 7), d_n=Fraction(0, 1))"
)
TRACE_TEXT = (
    f"Trace(config={CONFIG_TEXT}, steps=({STEP_TEXT},), limit_estimate=Fraction(0, 1), "
    "limit_error_bound=Fraction(2, 1), stopped_early_at=None)"
)
THIRD_TEXT = "RationalConst(value=Fraction(1, 3))"

SAMPLES = [
    (X, "Var()"),
    (THIRD, THIRD_TEXT),
    (Neg(X), "Neg(operand=Var())"),
    (Add(X, THIRD), f"Add(left=Var(), right={THIRD_TEXT})"),
    (Sub(X, THIRD), f"Sub(left=Var(), right={THIRD_TEXT})"),
    (Mul(X, THIRD), f"Mul(left=Var(), right={THIRD_TEXT})"),
    (Div(X, THIRD), f"Div(left=Var(), right={THIRD_TEXT})"),
    (Pow(X, 2), "Pow(base=Var(), exponent=2)"),
    (Min(X, THIRD), f"Min(left=Var(), right={THIRD_TEXT})"),
    (Max(X, THIRD), f"Max(left=Var(), right={THIRD_TEXT})"),
    (Abs(X), "Abs(operand=Var())"),
    (CONFIG, CONFIG_TEXT),
    (STEP, STEP_TEXT),
    (TRACE, TRACE_TEXT),
    (WitnessFound(2, F(1, 9)), "WitnessFound(j=2, value=Fraction(1, 9))"),
    (
        SignsStraddle(F(-1, 2), F(3, 4)),
        "SignsStraddle(f_a_m=Fraction(-1, 2), f_b_m=Fraction(3, 4))",
    ),
    (Violation("step 1: no"), "Violation(detail='step 1: no')"),
    (
        ClaimOutcome(1, Violation("v")),
        "ClaimOutcome(m=1, case=Violation(detail='v'))",
    ),
    (
        WitnessCertificate(WitnessKind.GRID, F(1, 2), F(0), 3),
        "WitnessCertificate(kind=<WitnessKind.GRID: 'grid'>, x=Fraction(1, 2), "
        "f_x=Fraction(0, 1), index=3)",
    ),
    (
        ContinuityBudget(F(1, 1000), 3, True, False),
        "ContinuityBudget(delta=Fraction(1, 1000), m=3, limit_gap_ok=True, halfwidth_ok=False)",
    ),
    (
        PlotSpec(X, TRACE, (-1.0, 1.0), None, 64),
        f"PlotSpec(function=Var(), trace={TRACE_TEXT}, x_range=(-1.0, 1.0), "
        "y_range=None, samples=64)",
    ),
]
RECORDS = [record for record, _ in SAMPLES]
IDS = [type(record).__name__ for record in RECORDS]
FIELDS = {
    Var: (),
    RationalConst: ("value",),
    Neg: ("operand",),
    Abs: ("operand",),
    Pow: ("base", "exponent"),
    ProblemConfig: (
        "a", "b", "epsilon", "max_steps", "weight_mode", "backend", "stop_early",
    ),
    StepRecord: ("n", "a_n", "b_n", "c_n", "f_c_n", "d_n"),
    Trace: ("config", "steps", "limit_estimate", "limit_error_bound", "stopped_early_at"),
    WitnessFound: ("j", "value"),
    SignsStraddle: ("f_a_m", "f_b_m"),
    Violation: ("detail",),
    ClaimOutcome: ("m", "case"),
    WitnessCertificate: ("kind", "x", "f_x", "index"),
    ContinuityBudget: ("delta", "m", "limit_gap_ok", "halfwidth_ok"),
    PlotSpec: ("function", "trace", "x_range", "y_range", "samples"),
}
for _binary in (Add, Sub, Mul, Div, Min, Max):
    FIELDS[_binary] = ("left", "right")


def _values(record):
    return tuple(getattr(record, name) for name in FIELDS[type(record)])


def test_every_record_class_has_a_sample():
    assert len({type(record) for record in RECORDS}) == len(FIELDS) == 21


@pytest.mark.parametrize(("record", "text"), SAMPLES, ids=IDS)
def test_repr_is_the_dataclass_text(record, text):
    assert repr(record) == text


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_equality_is_by_type_and_fields(record):
    values = _values(record)
    twin = type(record)(*values)
    assert twin == record and not twin != record
    assert hash(twin) == hash(record)
    assert record != values and values != record
    # Each sample differs from every other, those of the same fields included.
    assert [other == record for other in RECORDS] == [other is record for other in RECORDS]


def test_equality_is_type_sensitive():
    assert Add(X, THIRD) != Sub(X, THIRD)
    assert Min(X, THIRD) != Max(X, THIRD)
    assert Neg(X) != Abs(X)
    assert len({Add(X, THIRD), Sub(X, THIRD), Mul(X, THIRD), Div(X, THIRD)}) == 4


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_fields_cannot_be_set_or_deleted(record):
    for name in FIELDS[type(record)]:
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_pickles_and_copies_are_equal(record):
    for twin in (
        pickle.loads(pickle.dumps(record)),
        copy.copy(record),
        copy.deepcopy(record),
    ):
        assert type(twin) is type(record)
        assert twin == record and hash(twin) == hash(record)


def test_dataclasses_replace_still_works():
    assert dataclasses.replace(STEP, d_n=F(1, 2)) == StepRecord(1, F(-1), F(1), F(0), F(-1, 7), F(1, 2))
    assert dataclasses.replace(TRACE, stopped_early_at=1).stopped_early_at == 1
    assert [f.name for f in dataclasses.fields(STEP)] == list(FIELDS[StepRecord])


def test_a_compiled_node_comes_back_without_its_code():
    tree = parse("min((1+6x^2)/7, 8+9x)")
    exact, floating = eval_exact(tree, F(1, 3)), eval_float(tree, 0.25)
    assert tree._exact_code and tree._float_code
    for twin in (pickle.loads(pickle.dumps(tree)), copy.copy(tree), copy.deepcopy(tree)):
        for name in ("_exact_code", "_float_code"):
            with pytest.raises(AttributeError):
                getattr(twin, name)
        assert twin == tree and hash(twin) == hash(tree)
        assert eval_exact(twin, F(1, 3)) == exact and eval_float(twin, 0.25) == floating


def test_keyword_construction_and_defaults():
    config = ProblemConfig(a=F(-1), b=F(1), epsilon=F(1, 3))
    assert _values(config) == (F(-1), F(1), F(1, 3), 40, WeightMode.INTERPOLATED, EXACT, False)
    trace = Trace(config=config, steps=(STEP,), limit_estimate=F(0), limit_error_bound=F(2))
    assert trace.stopped_early_at is None
    assert StepRecord(n=1, a_n=F(-1), b_n=F(1), c_n=F(0), f_c_n=F(-1, 7), d_n=F(0)) == STEP
    assert WitnessCertificate(kind=WitnessKind.LIMIT, x=F(0), f_x=F(1)).index is None
    spec = PlotSpec(function=X, trace=TRACE)
    assert (spec.x_range, spec.y_range, spec.samples) == (None, None, 512)
    with pytest.raises(TypeError):
        StepRecord(1, F(0))
    with pytest.raises(TypeError):
        ProblemConfig(a=F(-1), b=F(1), epsilon=F(1, 3), steps=3)


def test_node_checks():
    assert type(RationalConst(3).value) is Fraction and RationalConst(3).value == 3
    with pytest.raises(ValueError, match="^power exponent must be non-negative$"):
        Pow(X, -1)
    for exponent in (True, 2.0):
        with pytest.raises(ValueError, match="^power exponent must be an int$"):
            Pow(X, exponent)


def test_a_trace_has_steps():
    with pytest.raises(ValueError, match="^a trace records at least one step$"):
        Trace(CONFIG, (), F(0), F(2))


@pytest.mark.parametrize(
    ("kwargs", "error", "message"),
    [
        (dict(b=1.0), TypeError, "b must be Fraction under the exact backend, got float 1.0"),
        (dict(backend=FLOAT64), TypeError, "a must be float under the float backend, got Fraction -1"),
        (dict(a=F(1)), ValueError, "need a < b, got a = 1, b = 1"),
        (dict(epsilon=F(0)), InvalidTolerance, "epsilon must be positive, got 0"),
        (dict(max_steps=2.0), TypeError, "max_steps must be an int, got float"),
        (dict(max_steps=True), TypeError, "max_steps must be an int, got bool"),
        (dict(stop_early=1), TypeError, "stop_early must be a bool, got int"),
        (dict(max_steps=0), ValueError, "max_steps must be at least 1, got 0"),
    ],
)
def test_config_refusals(kwargs, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        ProblemConfig(**{"a": F(-1), "b": F(1), "epsilon": F(1, 3), **kwargs})


def test_a_refused_max_steps_of_any_length_is_printed():
    # 5,001 digits: past CPython's default limit for int-to-text conversion.
    with pytest.raises(ValueError) as err:
        ProblemConfig(a=F(-1), b=F(1), epsilon=F(1, 2), max_steps=-10**5000)
    assert str(err.value) == "max_steps must be at least 1, got -1" + "0" * 5000
