"""Command line front end: run, compare, verify, plot.

Exit codes are part of the contract: 0 on success, 2 for usage errors
(bad flags, unparsable functions, malformed trace files, float traces
handed to the verifier, values beyond the float range where floats are
asked for, input nested too deeply), 3 when the endpoint signs refuse
a run, and 4 when verification finds a claim violation.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .core import (
    BACKENDS,
    EXACT,
    BackendNotExact,
    ProblemConfig,
    SignPreconditionViolated,
    TraceFormatError,
    WeightMode,
    _first_witness_record,
    run,
    trace_from_jsonl,
    trace_to_jsonl,
)
from .funcdsl import EvalError, ParseError, parse, to_text
from .numerics import _to_float, parse_rational

__all__ = [
    "EXIT_OK",
    "EXIT_USAGE",
    "EXIT_SIGN",
    "EXIT_CLAIM",
    "PlotError",
    "PlotSpec",
    "render_trace_svg",
    "main",
]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SIGN = 3
EXIT_CLAIM = 4


def __getattr__(name: str):
    # The SVG renderer loads on first use, by ``plot`` or a caller (PEP 562).
    if name in ("PlotError", "PlotSpec", "render_trace_svg"):
        from . import svg

        return getattr(svg, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# Flag parsing helpers

def _rational_flag(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _positive_int_flag(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_problem_flags(sub: argparse.ArgumentParser, with_mode: bool) -> None:
    sub.add_argument("--function", "-f", required=True, help="function expression, e.g. 'min((1+6x^2)/7, 8+9x)'")
    sub.add_argument("--a", required=True, type=_rational_flag, help="left endpoint (rational, e.g. -1 or -3/2)")
    sub.add_argument("--b", required=True, type=_rational_flag, help="right endpoint (rational)")
    sub.add_argument("--epsilon", "-e", required=True, type=_rational_flag, help="tolerance (positive rational)")
    sub.add_argument("--max-steps", type=_positive_int_flag, default=40, help="number of steps (default 40)")
    sub.add_argument(
        "--backend",
        choices=list(BACKENDS),
        default="exact",
        help="scalar arithmetic (default exact)",
    )
    if with_mode:
        sub.add_argument(
            "--mode",
            choices=[m.value for m in WeightMode],
            default=WeightMode.INTERPOLATED.value,
            help="weight rule (default interpolated)",
        )
        sub.add_argument(
            "--stop-early",
            action="store_true",
            help="stop at the first step with |f(c_n)| < epsilon",
        )


# A '-' that starts a negative ratio such as -3/2 or an expression such
# as -x+1/3 or -min(x, 1): '-' followed by x, a digit, '.', '(' or a call.
_NEGATIVE_VALUE = re.compile(r"-(?:[x0-9.(]|(?:min|max|abs)\()")


class _ArgumentParser(argparse.ArgumentParser):
    """Reads ``-3/2`` and ``-x+1/3`` as values, not as options.

    argparse takes an argument that starts with '-' for a value only if
    it looks like a negative number, and its pattern for that covers
    ``-1`` and ``-0.5`` but neither ``-3/2`` nor an expression.  An
    argument that is no option string of the parser and starts like
    :data:`_NEGATIVE_VALUE` is a value here; anything else starting with
    '-' (``--bogus``, ``-z``) is still an option, and an unknown one is
    still rejected.  Subparsers inherit the class.
    """

    def _parse_optional(self, arg_string):
        if arg_string not in self._option_string_actions and _NEGATIVE_VALUE.match(arg_string):
            return None
        return super()._parse_optional(arg_string)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by later ones."""
    parser = _ArgumentParser(
        prog="interpbisect",
        description=(
            "Interval halving with a continuously selected pivot: run it, "
            "compare it against the classical sign rule, verify traces, "
            "plot them."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("run", help="run the iteration and write a JSONL trace")
    _add_problem_flags(sub, with_mode=True)
    sub.add_argument("--out", "-o", type=Path, default=Path("trace.jsonl"), help="trace file (default trace.jsonl)")
    sub.set_defaults(handler=_cmd_run)

    sub = commands.add_parser("compare", help="run both weight rules side by side")
    _add_problem_flags(sub, with_mode=False)
    sub.add_argument("--csv", type=Path, default=None, help="also write a CSV with exact values")
    sub.set_defaults(handler=_cmd_compare)

    sub = commands.add_parser("verify", help="check a trace against the per-step claim")
    sub.add_argument("--trace", "-t", required=True, type=Path, help="JSONL trace file")
    sub.add_argument("--function", "-f", required=True, help="the function the trace claims to have run")
    sub.add_argument("--delta", type=_rational_flag, default=None, help="continuity budget delta (with --m)")
    sub.add_argument("--m", type=_positive_int_flag, default=None, help="step for the continuity budget (with --delta)")
    sub.set_defaults(handler=_cmd_verify)

    sub = commands.add_parser("plot", help="render a trace to SVG")
    sub.add_argument("--trace", "-t", required=True, type=Path, help="JSONL trace file")
    sub.add_argument("--function", "-f", required=True, help="function to draw the curve of")
    sub.add_argument("--out", "-o", type=Path, default=Path("plot.svg"), help="output file (default plot.svg)")
    sub.add_argument("--samples", type=_positive_int_flag, default=512, help="curve samples (default 512)")
    sub.add_argument("--x-min", type=_rational_flag, default=None)
    sub.add_argument("--x-max", type=_rational_flag, default=None)
    sub.add_argument("--y-min", type=_rational_flag, default=None)
    sub.add_argument("--y-max", type=_rational_flag, default=None)
    sub.set_defaults(handler=_cmd_plot)

    return parser


# ---------------------------------------------------------------------------
# Subcommands

def _make_config(args: argparse.Namespace, mode: WeightMode, stop_early: bool) -> ProblemConfig:
    backend = BACKENDS[args.backend]
    return ProblemConfig(
        a=backend.convert(args.a),
        b=backend.convert(args.b),
        epsilon=backend.convert(args.epsilon),
        max_steps=args.max_steps,
        weight_mode=mode,
        backend=backend,
        stop_early=stop_early,
    )


def _approx(value) -> str:
    """``value`` to 9 decimals, or ``inf``/``-inf`` outside the float range."""
    return f"{_to_float(value):.9f}"


def _cmd_run(args: argparse.Namespace) -> int:
    f = parse(args.function)
    config = _make_config(args, WeightMode(args.mode), args.stop_early)
    trace = run(config, f)
    # Rendered before the trace is written: input too deep to print leaves no file.
    shown = to_text(f)
    args.out.write_text(trace_to_jsonl(trace), encoding="utf-8")

    backend = config.backend
    print(f"function: {shown}")
    count = len(trace.steps)
    print(f"wrote {count} step{'s' if count != 1 else ''} to {args.out}")
    if trace.stopped_early_at is not None:
        print(f"stopped early at step {trace.stopped_early_at}")
    estimate = trace.limit_estimate
    approx = f" ({_approx(estimate)})" if backend is EXACT else ""
    print(f"limit estimate: {backend.format(estimate)}{approx}")
    print(f"limit error bound: {backend.format(trace.limit_error_bound)}")
    witness = _first_witness_record(trace)
    if backend is EXACT:
        if witness is not None:
            print(
                f"witness: |f(c_{witness.n})| < epsilon at "
                f"c_{witness.n} = {backend.format(witness.c_n)}, "
                f"f = {backend.format(witness.f_c_n)}"
            )
        else:
            # The limit estimate is the last midpoint, f_c_n its value.
            f_x = trace.steps[-1].f_c_n
            print(
                f"no midpoint witness within {count} steps; "
                f"limit candidate x = {backend.format(estimate)} "
                f"with f(x) = {backend.format(f_x)} ({_approx(f_x)})"
            )
    elif witness is None:
        print(f"no recorded |f(c_n)| < epsilon within {count} steps")
    else:
        print(f"first recorded |f(c_n)| < epsilon at step {witness.n}")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    f = parse(args.function)
    trace_i = run(_make_config(args, WeightMode.INTERPOLATED, False), f)
    trace_c = run(_make_config(args, WeightMode.CLASSICAL, False), f)
    backend = trace_i.config.backend

    print(f"function: {to_text(f)}")
    print(
        f"interval [{backend.format(trace_i.config.a)}, {backend.format(trace_i.config.b)}], "
        f"epsilon = {backend.format(trace_i.config.epsilon)}, "
        f"{args.max_steps} steps, backend {backend.name}"
    )
    header = (
        f"{'n':>4} {'c (interp)':>18} {'f(c) (interp)':>18} "
        f"{'c (classical)':>18} {'f(c) (classical)':>18}"
    )
    print(header)
    print("-" * len(header))
    for rec_i, rec_c in zip(trace_i.steps, trace_c.steps):
        print(
            f"{rec_i.n:>4} {_approx(rec_i.c_n):>18} {_approx(rec_i.f_c_n):>18} "
            f"{_approx(rec_c.c_n):>18} {_approx(rec_c.f_c_n):>18}"
        )
    for label, trace in (("interpolated", trace_i), ("classical", trace_c)):
        witness = _first_witness_record(trace)
        if witness is None:
            print(f"{label}: no |f(c_n)| < epsilon within {len(trace.steps)} steps")
        else:
            print(f"{label}: first |f(c_n)| < epsilon at step {witness.n}")

    if args.csv is not None:
        lines = ["n,c_interp,f_interp,d_interp,c_classical,f_classical"]
        for rec_i, rec_c in zip(trace_i.steps, trace_c.steps):
            lines.append(
                ",".join(
                    (
                        str(rec_i.n),
                        backend.format(rec_i.c_n),
                        backend.format(rec_i.f_c_n),
                        backend.format(rec_i.d_n),
                        backend.format(rec_c.c_n),
                        backend.format(rec_c.f_c_n),
                    )
                )
            )
        args.csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote CSV to {args.csv}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    import json

    from . import verifier

    if (args.delta is None) != (args.m is None):
        print("verify: --delta and --m go together", file=sys.stderr)
        return EXIT_USAGE
    text = args.trace.read_text(encoding="utf-8")
    trace = trace_from_jsonl(text)
    f = parse(args.function)
    outcomes = verifier.check_claim(trace, f)
    # The last outcome carries the earliest midpoint witness, if any.
    last = outcomes[-1].case
    found = last if isinstance(last, verifier.WitnessFound) else None
    witness = verifier._witness_certificate(trace, f, found)
    budget = None
    if args.delta is not None:
        budget = verifier.continuity_budget_check(trace, args.delta, args.m)
    report = verifier.report_to_json(trace, outcomes, witness, budget)
    print(json.dumps(report, indent=2))
    faults = []
    violated = [o.m for o in outcomes if isinstance(o.case, verifier.Violation)]
    if violated:
        faults.append(
            f"claim violated at step{'s' if len(violated) > 1 else ''} "
            f"{', '.join(map(str, violated))}"
        )
    # A stop_early run ends at its earliest midpoint witness and nowhere else.
    stopped = trace.stopped_early_at
    first = None if found is None else found.j
    if trace.config.stop_early and stopped != first:
        recorded = "no early stop" if stopped is None else f"an early stop at step {stopped}"
        actual = (
            "no step has |f(c_n)| < epsilon" if first is None
            else f"the first |f(c_n)| < epsilon is at step {first}"
        )
        faults.append(f"trace records {recorded}, but {actual}")
    for fault in faults:
        print(fault, file=sys.stderr)
    return EXIT_CLAIM if faults else EXIT_OK


def _cmd_plot(args: argparse.Namespace) -> int:
    from .svg import PlotSpec, render_trace_svg

    text = args.trace.read_text(encoding="utf-8")
    trace = trace_from_jsonl(text)
    f = parse(args.function)
    x_range = None
    if (args.x_min is None) != (args.x_max is None):
        print("plot: --x-min and --x-max go together", file=sys.stderr)
        return EXIT_USAGE
    if (args.y_min is None) != (args.y_max is None):
        print("plot: --y-min and --y-max go together", file=sys.stderr)
        return EXIT_USAGE
    if args.x_min is not None:
        x_range = (float(args.x_min), float(args.x_max))
    y_range = None
    if args.y_min is not None:
        y_range = (float(args.y_min), float(args.y_max))
    spec = PlotSpec(
        function=f,
        trace=trace,
        x_range=x_range,
        y_range=y_range,
        samples=args.samples,
    )
    args.out.write_text(render_trace_svg(spec), encoding="utf-8")
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point

# What main prints to stderr and returns for a failure: the first entry
# whose exception type matches.
_FAILURES = (
    (ParseError, "function syntax", EXIT_USAGE),
    (SignPreconditionViolated, "run refused", EXIT_SIGN),
    ((TraceFormatError, BackendNotExact), "trace", EXIT_USAGE),
    (EvalError, "evaluation", EXIT_USAGE),
    (OSError, "io", EXIT_USAGE),
    (ValueError, "error", EXIT_USAGE),
    # A float-backend input or constant, or a plot range, past the largest float.
    (OverflowError, "float range", EXIT_USAGE),
    # The parser, the printer and the evaluators recurse per level.
    (RecursionError, "input nested too deeply", EXIT_USAGE),
)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except Exception as exc:
        for kind, prefix, code in _FAILURES:
            if isinstance(exc, kind):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise
