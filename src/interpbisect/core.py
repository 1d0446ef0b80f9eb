"""Interval halving with a continuously selected pivot.

Classical bisection keeps the half interval whose endpoints straddle the
root, a decision that is discontinuous in the function values.  Here the
kept interval is chosen by a weight

    d_n = max(0, min(1/2 + f(c_n) / epsilon, 1))

and the next interval is the width-halved window

    a_{n+1} = c_n - d_n (b - a) / 2^n
    b_{n+1} = b_n - d_n (b - a) / 2^n

so ``d_n = 1`` keeps the left half ``[a_n, c_n]``, ``d_n = 0`` keeps the
right half ``[c_n, b_n]``, and intermediate weights slide the window
continuously between those extremes.  The width identity

    b_n - a_n = (b - a) / 2^(n-1)

holds exactly at every step regardless of the weights, which is what the
verifier checks mechanically on exact traces.  The weight map is
1/epsilon-Lipschitz in ``f(c_n)``, so changing one sampled value f(c_j)
moves each later midpoint by at most |change| (b - a) / (epsilon 2^j);
with the classical 0/1 weight (``d_n = 0`` iff ``f(c_n) < 0``) the
recurrence reproduces textbook bisection exactly.

The recurrence runs in one of two backends, :data:`EXACT` (rationals,
no rounding anywhere) and :data:`FLOAT64` (IEEE binary64).  Each owns
its scalar type, evaluator and trace text; its ``midpoint``, two weights
and ``next_window`` are the single-step API.  :func:`_steps` is the one
loop over them, and :func:`run` collects it.  Only the float window
update checks a_n < b_n, which the width identity guarantees exactly.

Runs record every step into a :class:`Trace`, which serializes to JSONL:
one config line, one line per step, one final line.  Exact scalars are
``num/den`` strings, float scalars are JSON numbers.  Each line is one
format string over JSON texts: digits need no escaping, so the bytes are
``json.dumps``'s.  Writing and reading an exact trace converts each
distinct denominator between int and text once per call.  Every line
has one grammar, the writer's: the reader takes each in one
regular-expression match per backend, exact values in lowest terms and
float values read by value, and refuses any other line, naming the
first field that departs.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from enum import Enum
from fractions import Fraction
from functools import cache
from itertools import count
from math import isfinite

from .funcdsl import FunctionExpr, eval_exact, eval_float
from .numerics import _PLAIN, _aligned, _DenTexts, _int_text, _read_pair, _text_int
from .numerics import format_rational, parse_rational, reduced, scalar_text
from .record import Record, init_field

__all__ = [
    "Scalar",
    "EXACT",
    "FLOAT64",
    "BACKENDS",
    "WeightMode",
    "ProblemConfig",
    "StepRecord",
    "Trace",
    "BackendNotExact",
    "InvalidTolerance",
    "SignPreconditionViolated",
    "TraceFormatError",
    "cauchy_bound",
    "run",
    "trace_to_jsonl",
    "trace_from_jsonl",
]

Scalar = Fraction | float

_ZERO = Fraction(0)
_ONE = Fraction(1)


class InvalidTolerance(ValueError):
    """Tolerance must be strictly positive."""


class SignPreconditionViolated(ValueError):
    """The endpoints do not satisfy f(a) < 0 < f(b)."""

    def __init__(self, f_a: Scalar, f_b: Scalar):
        self.f_a = f_a
        self.f_b = f_b
        super().__init__(
            f"need f(a) < 0 < f(b), got f(a) = {scalar_text(f_a)} "
            f"and f(b) = {scalar_text(f_b)}"
        )


class TraceFormatError(ValueError):
    """The JSONL text is not a trace this module wrote."""


class BackendNotExact(ValueError):
    """Raised when a check that needs exact arithmetic gets a float trace."""


class WeightMode(Enum):
    INTERPOLATED = "interpolated"
    CLASSICAL = "classical"


# ---------------------------------------------------------------------------
# Backends

class ExactBackend:
    """Rationals (``fractions.Fraction``; ints work too), with no rounding.

    Every comparison is decidable and every identity holds with equality.
    The step arithmetic works on integer (num, den) pairs and reduces each
    stored value once with :func:`~interpbisect.numerics.reduced`;
    Fraction operators would run a full gcd per operation over the
    thousands of bits the windows grow to.  The midpoint and the window
    update put their two operands over one denominator with
    :func:`~interpbisect.numerics._aligned`, which lines up the powers
    of two by shifts, so the window's 2^E never multiplies itself.
    """

    name = "exact"
    scalar = Fraction
    evaluate = staticmethod(eval_exact)

    def __reduce__(self) -> str:
        # Pickles and copies resolve to the one instance, so callers can
        # test ``backend is EXACT``.
        return "EXACT"

    def convert(self, value: int | str | Fraction | float) -> Fraction:
        """Coerce ``value`` into a Fraction.

        Binary floats are refused outright: a float has no canonical
        decimal intent, and silently admitting one would contaminate
        exact traces.  Parse text instead.
        """
        if isinstance(value, float):
            raise TypeError(
                "refusing to convert a binary float into the exact "
                "backend; pass an int, Fraction, or numeric text"
            )
        if isinstance(value, str):
            return parse_rational(value)
        return Fraction(value)

    def format(self, value: Fraction) -> str:
        """``num/den`` text, the denominator always present."""
        return format_rational(value)

    # A value as the writer writes it, as two groups for _read_pair.
    _value = f'"{_PLAIN}"'

    def _trace_codec(self):
        """``(to_json, read, read_step)`` for one trace call.

        ``to_json`` writes the JSON text of :meth:`format`'s ``num/den``
        string.  ``read(match, k)`` is the list of the first ``k`` values of
        a config or final line's match, and ``read_step(match, n)`` the
        record of step ``n`` from a match of the step line; each is None
        when a value is not in lowest terms.  Each converts a distinct
        denominator once per call (see :mod:`interpbisect.numerics`); the
        two readers share one memo.
        """
        dens = {}

        def read(match, k: int) -> list | None:
            groups = match.groups()
            values = [_read_pair(groups[i], groups[i + 1], dens) for i in range(0, 2 * k, 2)]
            return None if None in values else values

        def read_step(match, n: int) -> StepRecord | None:
            _, an, ad, bn, bd, cn, cd, fn, fd, dn, dd = match.groups()
            a = _read_pair(an, ad, dens)
            b = _read_pair(bn, bd, dens)
            c = _read_pair(cn, cd, dens)
            f_c = _read_pair(fn, fd, dens)
            d = _read_pair(dn, dd, dens)
            if a is None or b is None or c is None or f_c is None or d is None:
                return None
            return StepRecord(n, a, b, c, f_c, d)

        return _DenTexts().json, read, read_step

    def midpoint(self, a: Fraction, b: Fraction) -> Fraction:
        x, y, u, v = _aligned(a.numerator, a.denominator, b.numerator, b.denominator)
        return reduced(x + y, 2 * u * v)

    def interpolation_weight(self, f_c: Fraction, epsilon: Fraction) -> Fraction:
        """The interpolated weight; the caller guarantees ``epsilon > 0``."""
        # 1/2 + f/e = (h + 2 f_num e_den) / 2h with h = f_den e_num > 0.
        h = f_c.denominator * epsilon.numerator
        num = h + 2 * f_c.numerator * epsilon.denominator
        if num <= 0:
            return _ZERO
        if num >= 2 * h:
            return _ONE
        return reduced(num, 2 * h)

    def classical_weight(self, f_c: Fraction) -> Fraction:
        return _ZERO if f_c < 0 else _ONE

    def next_window(self, n: int, b: Fraction, c: Fraction, d: Fraction, width: Fraction):
        """``(a_{n+1}, b_{n+1})`` from b_n, c_n and a valid d_n; a_{n+1} < b_{n+1} exactly."""
        if not d:
            return c, b
        # shift = sn / sd, unreduced; each endpoint is reduced once.
        sn = d.numerator * width.numerator
        sd = (d.denominator * width.denominator) << n
        x, y, u, v = _aligned(c.numerator, c.denominator, sn, sd)
        a_next = reduced(x - y, u * v)
        x, y, u, v = _aligned(b.numerator, b.denominator, sn, sd)
        return a_next, reduced(x - y, u * v)


class FloatBackend:
    """IEEE binary64: the same recurrence with every operation rounded.

    It makes no correctness claim beyond "same algorithm, rounded":
    comparisons against the tolerance use the raw rounded values.
    """

    name = "float"
    scalar = float
    evaluate = staticmethod(eval_float)

    def __reduce__(self) -> str:
        return "FLOAT64"

    def convert(self, value: int | str | Fraction | float) -> float:
        """Coerce ``value`` into a float; text is read as an exact rational first."""
        if isinstance(value, str):
            return float(parse_rational(value))
        return float(value)

    def format(self, value: float) -> str:
        """Shortest round-trip decimal text."""
        return repr(float(value))

    # A value as the writer writes it: a JSON number with a fraction part
    # or a signed exponent, as repr writes a finite float, or json's
    # Infinity, -Infinity and NaN.  It is read by value.
    _value = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:e[+-][0-9]+)?|e[+-][0-9]+)|-?Infinity|NaN)"

    def _trace_codec(self):
        """``(to_json, read, read_step)`` for one trace: floats are JSON numbers, as text.

        As :meth:`ExactBackend._trace_codec`'s, except that the readers
        read every match: floats are read by value, never refused.
        """

        def read(match, k: int) -> list:
            return [float(v) for v in match.groups()[:k]]

        def read_step(match, n: int) -> StepRecord:
            _, a, b, c, f_c, d = match.groups()
            return StepRecord(n, float(a), float(b), float(c), float(f_c), float(d))

        fmt = self.format

        def to_json(value: float) -> str:
            # As json writes it: a finite float as its repr, which is format's text.
            if isfinite(value):
                return fmt(value)
            return "NaN" if value != value else "Infinity" if value > 0 else "-Infinity"

        return to_json, read, read_step

    def midpoint(self, a: float, b: float) -> float:
        return (a + b) / 2

    def interpolation_weight(self, f_c: float, epsilon: float) -> float:
        """The interpolated weight; the caller guarantees ``epsilon > 0``."""
        # Exactly 0 or 1 once |f_c| >= epsilon/2: 0.5 and 1.0 are exact, rounding monotone.
        return max(0.0, min(0.5 + f_c / epsilon, 1.0))

    def classical_weight(self, f_c: float) -> float:
        return 0.0 if f_c < 0 else 1.0

    def next_window(self, n: int, b: float, c: float, d: float, width: float):
        """``(a_{n+1}, b_{n+1})``; ValueError once rounding closes the window."""
        shift = d * width / 2**n
        a_next, b_next = c - shift, b - shift
        if not a_next < b_next:
            raise ValueError(f"degenerate interval at step {n + 1}: [{a_next}, {b_next}]")
        return a_next, b_next


EXACT = ExactBackend()
FLOAT64 = FloatBackend()

# Backends by the name the CLI and the trace format use.
BACKENDS = {backend.name: backend for backend in (EXACT, FLOAT64)}


def _require_int(name: str, value) -> None:
    """Raise TypeError unless ``value`` is an int; a bool is not."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")


class ProblemConfig(Record):
    """One root-bracketing problem: interval, tolerance, and run policy.

    Scalars must already live in ``backend``'s type; the config is the
    single source of truth a trace carries about how it was produced.
    ``stop_early`` ends the run at the first step with |f(c_n)| <
    epsilon instead of running all ``max_steps``.
    """

    __slots__ = ("a", "b", "epsilon", "max_steps", "weight_mode", "backend", "stop_early")

    def __init__(self, a: Scalar, b: Scalar, epsilon: Scalar, max_steps: int = 40,
                 weight_mode: WeightMode = WeightMode.INTERPOLATED,
                 backend: ExactBackend | FloatBackend = EXACT, stop_early: bool = False):
        expected = backend.scalar
        for field, value in (("a", a), ("b", b), ("epsilon", epsilon)):
            if not isinstance(value, expected):
                raise TypeError(
                    f"{field} must be {expected.__name__} under the "
                    f"{backend.name} backend, got "
                    f"{type(value).__name__} {scalar_text(value)}"
                )
        if not a < b:
            raise ValueError(f"need a < b, got a = {scalar_text(a)}, b = {scalar_text(b)}")
        if not epsilon > 0:
            raise InvalidTolerance(f"epsilon must be positive, got {scalar_text(epsilon)}")
        _require_int("max_steps", max_steps)
        if not isinstance(stop_early, bool):
            raise TypeError(f"stop_early must be a bool, got {type(stop_early).__name__}")
        if max_steps < 1:
            raise ValueError(f"max_steps must be at least 1, got {scalar_text(max_steps)}")
        self._init(a, b, epsilon, max_steps, weight_mode, backend, stop_early)

    @property
    def original_width(self) -> Scalar:
        return self.b - self.a


class StepRecord(Record):
    """Everything observable about one step."""

    __slots__ = ("n", "a_n", "b_n", "c_n", "f_c_n", "d_n")

    def __init__(self, n: int, a_n: Scalar, b_n: Scalar, c_n: Scalar, f_c_n: Scalar, d_n: Scalar):
        init_field(self, "n", n)
        init_field(self, "a_n", a_n)
        init_field(self, "b_n", b_n)
        init_field(self, "c_n", c_n)
        init_field(self, "f_c_n", f_c_n)
        init_field(self, "d_n", d_n)


class Trace(Record):
    """A completed run: config, per-step records, and the final estimate.

    ``limit_estimate`` is the last computed midpoint, and
    ``limit_error_bound`` bounds its distance to the sequence's limit:
    |c_m - c_n| <= (b - a) / 2^(m-1) for all n >= m, with equality
    impossible to exceed because later midpoints stay inside the
    current window.  ``stopped_early_at`` is the step index when the
    early-stop rule fired, else None.
    """

    __slots__ = ("config", "steps", "limit_estimate", "limit_error_bound", "stopped_early_at")

    def __init__(self, config: ProblemConfig, steps: tuple[StepRecord, ...], limit_estimate: Scalar,
                 limit_error_bound: Scalar, stopped_early_at: int | None = None):
        if not steps:
            raise ValueError("a trace records at least one step")
        self._init(config, steps, limit_estimate, limit_error_bound, stopped_early_at)


def cauchy_bound(m: int, original_width: Scalar) -> Scalar:
    """Bound on |c_k - c_m| for every k >= m: (b - a) / 2^(m-1).

    All midpoints from step m onward lie in the step-m window, whose
    width is exactly this value.

    Raises:
        ValueError: if ``m < 1``.
    """
    if m < 1:
        raise ValueError(f"step index starts at 1, got {m}")
    return original_width / 2 ** (m - 1)


def _is_witness(f_c: Scalar, epsilon: Scalar) -> bool:
    """The midpoint-witness rule: |f(c_n)| < epsilon, strictly."""
    return abs(f_c) < epsilon


def _first_witness_record(trace: Trace) -> StepRecord | None:
    """The earliest record with |f(c_n)| < epsilon, or None; under EXACT, the verifier's midpoint witness."""
    return next((rec for rec in trace.steps if _is_witness(rec.f_c_n, trace.config.epsilon)), None)


def _steps(config: ProblemConfig, f: FunctionExpr) -> Iterator[StepRecord]:
    """Check that f(a) < 0 < f(b), then yield the records a trace of ``config`` holds.

    It picks the weight rule once, keeps the window (a_n, b_n) in two
    locals and computes the next one only when the next record is asked
    for, so nothing is computed past the last record.
    """
    backend = config.backend
    evaluate = backend.evaluate
    f_a, f_b = evaluate(f, config.a), evaluate(f, config.b)
    if not (f_a < 0 and f_b > 0):
        raise SignPreconditionViolated(f_a, f_b)

    epsilon, width = config.epsilon, config.original_width
    if config.weight_mode is WeightMode.INTERPOLATED:
        weight = lambda f_c: backend.interpolation_weight(f_c, epsilon)
    else:
        weight = backend.classical_weight
    a, b = config.a, config.b
    for n in count(1):
        c = backend.midpoint(a, b)
        f_c = evaluate(f, c)
        d = weight(f_c)
        yield StepRecord(n, a, b, c, f_c, d)
        if n == config.max_steps or config.stop_early and _is_witness(f_c, epsilon):
            return
        a, b = backend.next_window(n, b, c, d, width)


def run(config: ProblemConfig, f: FunctionExpr) -> Trace:
    """Run the iteration, checking the sign precondition first.

    Computes in the backend the config names, evaluation included, so an
    exact run is rounding-free end to end.

    Raises:
        SignPreconditionViolated: unless f(a) < 0 < f(b) in backend
            arithmetic.
        EvalError: if f divides by zero at a visited point.
    """
    steps = tuple(_steps(config, f))
    last = steps[-1]
    # Under stop_early the last record is a witness exactly when the run stopped early.
    stopped = config.stop_early and _is_witness(last.f_c_n, config.epsilon)
    bound = cauchy_bound(last.n, config.original_width)
    return Trace(config, steps, last.c_n, bound, stopped_early_at=last.n if stopped else None)


# ---------------------------------------------------------------------------
# JSONL trace format

# The trace lines over JSON texts; the backend name and the mode need no escaping.
_HEAD = '{{"a":{},"b":{},"epsilon":{},"backend":"{}","mode":"{}","max_steps":{}{}}}'.format
_STEP = '{{"n":{},"a_n":{},"b_n":{},"c_n":{},"f_c_n":{},"d_n":{}}}'.format
_TAIL = '{{"limit_estimate":{},"limit_error_bound":{}{}}}'.format


def trace_to_jsonl(trace: Trace) -> str:
    """Serialize: config line, one line per step, final line.

    Exact scalars become ``num/den`` strings, float scalars JSON
    numbers; the output is deterministic byte for byte.
    """
    config = trace.config
    backend = config.backend
    text = backend._trace_codec()[0]
    a, b, epsilon = (text(v) for v in (config.a, config.b, config.epsilon))
    stop = ',"stop_early":true' if config.stop_early else ""
    lines = [_HEAD(a, b, epsilon, backend.name, config.weight_mode.value, _int_text(config.max_steps), stop)]
    lines += [
        _STEP(rec.n, text(rec.a_n), text(rec.b_n), text(rec.c_n), text(rec.f_c_n), text(rec.d_n))
        for rec in trace.steps
    ]
    stopped = trace.stopped_early_at
    stop = "" if stopped is None else f',"stopped_early_at":{stopped}'
    lines.append(_TAIL(text(trace.limit_estimate), text(trace.limit_error_bound), stop))
    return "\n".join(lines) + "\n"


# A step number, capped at 18 digits so that int() cannot raise.
_INDEX = "([1-9][0-9]{0,17})"


@cache
def _grammar(backend):
    """``{kind: (fullmatch, fields)}`` of ``backend``'s config, step and final lines, compiled on first use.

    Each ``fullmatch`` takes a line as the writer writes it: the backend's
    name and the mode are literals, and ``,"stop_early":true`` and
    ``,"stopped_early_at":N`` optional suffixes.  ``fields`` pairs each
    key with its field's pattern, separator first, for :func:`_refusal`.
    """
    value = backend._value
    head = [re.escape(backend.name), f"({'|'.join(mode.value for mode in WeightMode)})", "([1-9][0-9]*)"]
    lines = {
        "config": (_HEAD, [value] * 3 + head + ['(,"stop_early":true)?']),
        "step": (_STEP, [_INDEX] + [value] * 5),
        "final": (_TAIL, [value] * 2 + [f'(?:,"stopped_early_at":{_INDEX})?']),
    }
    grammars = {}
    for kind, (template, texts) in lines.items():
        # The template's text around its fields: '\{"n":', ',"a_n":', ..., '\}'.
        parts = [re.escape(part) for part in template(*["\0"] * len(texts)).split("\0")]
        # A key is the first word of its field's text, or of an optional suffix's pattern.
        fields = [(re.search(r"\w+", p or t)[0], re.compile(p + t)) for p, t in zip(parts, texts)]
        grammars[kind] = re.compile("".join(f.pattern for _, f in fields) + parts[-1]).fullmatch, fields
    return grammars


def _refusal(line: str, lineno: int, kind: str, backends) -> TraceFormatError:
    """The error for line ``lineno`` of ``kind``: its first field not in the writer's form, or its index.

    The field named is where the grammar of the backend (of ``backends``)
    that follows the line furthest departs from it.
    """
    if not line.strip():
        return TraceFormatError(f"line {lineno}: blank line")
    furthest = -1, ""
    for backend in backends:
        pos, last = 0, None
        for key, field in _grammar(backend)[kind][1]:
            match = field.match(line, pos)
            # An exact value matches as two groups.
            if match is None or match.lastindex == 2 and _read_pair(*match.groups(), {}) is None:
                where = f"at {key!r}"
                break
            if key == "n" and int(match[1]) != lineno - 1:
                return TraceFormatError(f"line {lineno}: step index {match[1]} out of order (expected {lineno - 1})")
            if match.end() > pos:  # an optional suffix may match nothing
                last = key
            pos = match.end()
        else:
            where = f"after {last!r}"
        if pos > furthest[0]:
            furthest = pos, where
    return TraceFormatError(f"line {lineno}: {kind} line departs from the writer's form {furthest[1]}")


def trace_from_jsonl(text: str) -> Trace:
    """Parse a trace serialized by :func:`trace_to_jsonl`.

    Raises:
        TraceFormatError: naming the file line of the first structural
            problem: a line not as the writer writes it, a blank line
            before the final line, a config that :class:`ProblemConfig`
            refuses, or a step count other than ``stopped_early_at``
            (which needs ``stop_early``) or else ``max_steps``.
    """
    lines = text.split("\n")
    while lines and not lines[-1].strip():
        lines.pop()
    if len(lines) < 3:
        raise TraceFormatError(f"line {max(len(lines), 1)}: a trace needs a config line, a step line and a final line")

    # Exact values are quoted and float values are not: at most one backend's config line matches.
    for backend in BACKENDS.values():
        grammar = _grammar(backend)
        match = grammar["config"][0](lines[0])
        if match:
            break
    _, read, read_step = backend._trace_codec()
    values = match and read(match, 3)
    if not values:
        raise _refusal(lines[0], 1, "config", BACKENDS.values())
    mode, max_steps, stop = match.groups()[-3:]
    try:
        config = ProblemConfig(*values, _text_int(max_steps), WeightMode(mode), backend, stop is not None)
    except ValueError as exc:
        raise TraceFormatError(f"line 1: bad config: {exc}") from exc

    # Step n is file line n + 1, read in one match.
    fullmatch = grammar["step"][0]
    records = []
    for n in range(1, len(lines) - 1):
        match = fullmatch(lines[n])
        rec = match and int(match[1]) == n and read_step(match, n)
        if not rec:
            raise _refusal(lines[n], n + 1, "step", (backend,))
        records.append(rec)

    lineno = len(lines)
    match = grammar["final"][0](lines[-1])
    values = match and read(match, 2)
    if not values:
        raise _refusal(lines[-1], lineno, "final", (backend,))
    stopped = match.groups()[-1]
    stopped = None if stopped is None else int(stopped)
    # max_steps is printed as the config line has it, in any number of digits.
    steps, most = len(records), config.max_steps
    if stopped is None and steps != most:
        raise TraceFormatError(f"line {lineno}: {steps} steps, max_steps {max_steps}, no stopped_early_at")
    if stopped is not None and not config.stop_early:
        raise TraceFormatError(f"line {lineno}: stopped_early_at without stop_early")
    if stopped is not None and not stopped == steps <= most:
        raise TraceFormatError(f"line {lineno}: {steps} steps, max_steps {max_steps}, stopped_early_at {stopped}")
    return Trace(config, tuple(records), *values, stopped_early_at=stopped)
