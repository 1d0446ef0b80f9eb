"""The four workloads: inputs per round, the timed operation, its checks.

A workload is built from a seeded corpus.  ``rounds`` is a list of
rounds, each a list of cases; a run goes through whole rounds in order and wraps
around.  ``op`` is the timed operation: it calls the program only
through public functions, each inside a span.  ``check`` runs after the
timer stops and returns the problems it found.  ``sample`` runs only in
the traced run, also after the timer stops: it times ``parse``,
``eval_exact``, ``eval_float`` and the other layers the operation
reaches only from inside the program, by calling them on the
operation's own inputs and points.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, List

import checks
from inputs import CUBIC, SAMPLE, Problem, bits, make_corpus, mirror

from interpbisect import (
    FLOAT64,
    ProblemConfig,
    WeightMode,
    check_claim,
    continuity_budget_check,
    eval_exact,
    eval_float,
    extract_witness,
    grid_oracle,
    parse,
    run,
    trace_from_jsonl,
    trace_to_jsonl,
)
from interpbisect import cli

THIRD = Fraction(1, 3)
CERTIFY_STEPS = 30
DELTA = Fraction(1, 1000)
GRID_N = 1000
GRID_EPSILON = Fraction(1, 10)
CLI_FLOAT_STEPS = 50
CLI_EXACT_STEPS = 40
# deep-exact: corpus template -> steps, so each round spans 80-120 steps
# while the quartic templates, whose evaluation is the dearest at large
# operands, stay at the short end.
DEEP_TEMPLATE_STEPS = (80, 90, 80, 120, 110)
DEEP_SAMPLE_STEPS = (80, 100, 120)
DEEP_CUBIC_STEPS = 7


@dataclass(frozen=True)
class Case:
    problem: Problem
    steps: int  # the grid size N in grid-scan
    epsilon: Fraction
    m: int = 1  # continuity budget step


@dataclass
class Workload:
    name: str
    corpus: List[Problem]
    rounds: List[List[Case]]
    op: Callable
    check: Callable
    sample: Callable


def _rounds_of_five(cases: List[Case]) -> List[List[Case]]:
    return [cases[i:i + 5] for i in range(0, len(cases), 5)]


@dataclass
class Certified:
    """One weight mode's outputs from the certify pipeline."""

    mode: WeightMode
    trace: object
    text: str
    back: object
    outcomes: list
    witness: object
    budget: object


# ---------------------------------------------------------------------------
# certify and deep-exact

def _certify_op(case: Case, spans, modes) -> List[Certified]:
    p = case.problem
    with spans.span("funcdsl.parse"):
        f = parse(p.text)
    out = []
    for mode in modes:
        config = ProblemConfig(a=p.a, b=p.b, epsilon=case.epsilon,
                               max_steps=case.steps, weight_mode=mode)
        with spans.span("core.run"):
            trace = run(config, f)
        with spans.span("core.trace_to_jsonl"):
            text = trace_to_jsonl(trace)
        with spans.span("core.trace_from_jsonl"):
            back = trace_from_jsonl(text)
        with spans.span("verifier.check_claim"):
            outcomes = check_claim(back, f)
        with spans.span("verifier.extract_witness"):
            witness = extract_witness(back, f)
        with spans.span("verifier.continuity_budget_check"):
            budget = continuity_budget_check(back, DELTA, case.m)
        out.append(Certified(mode, trace, text, back, outcomes, witness, budget))
    return out


def _certify_check(case: Case, result: List[Certified]) -> List[str]:
    p = case.problem
    problems: List[str] = []
    for c in result:
        classical = c.mode is WeightMode.CLASSICAL
        rows = checks.rows_of(c.trace)
        found, values = checks.exact_rows(
            rows, p.shape, p.a, p.b, case.epsilon, case.steps, classical,
            c.trace.limit_estimate, c.trace.limit_error_bound)
        found += checks.jsonl_ends(c.text, p.a, p.b, case.epsilon, case.steps,
                                   c.mode.value, c.trace.limit_estimate)
        if c.back != c.trace:
            found.append("JSONL round trip changed the trace")
        found += checks.claim(c.outcomes, rows, values, p.shape, case.epsilon)
        found += checks.witness(c.witness, rows, values, p.shape, case.epsilon,
                                c.trace.limit_estimate)
        found += checks.budget(c.budget, p.b - p.a, DELTA, case.m)
        problems += [f"{p.name} {c.mode.value}: {x}" for x in found]
    return problems


def _time_evals(spans, f, exact_points, float_points) -> None:
    """Time eval_exact and eval_float on the operation's own points."""
    with spans.span("funcdsl.eval_exact", calls=len(exact_points)):
        for x in exact_points:
            eval_exact(f, x)
    with spans.span("funcdsl.eval_float", calls=len(float_points)):
        for x in float_points:
            eval_float(f, x)


def _certify_sample(case: Case, result: List[Certified], spans) -> None:
    points = []
    for c in result:
        spans.add("core.run.steps", len(c.trace.steps))
        spans.add("core.trace.bytes", len(c.text.encode()))
        for r in c.trace.steps:
            points += (r.a_n, r.b_n, r.c_n)
            spans.high("numerics.den_bits.max",
                       max(bits(r.a_n), bits(r.b_n), bits(r.f_c_n)))
    _time_evals(spans, parse(case.problem.text), points, [float(x) for x in points])


def _certify(corpus: List[Problem], work_dir: Path) -> Workload:
    cases = [Case(p, CERTIFY_STEPS, THIRD, m=5 + 5 * (i % 6)) for i, p in enumerate(corpus)]
    modes = (WeightMode.INTERPOLATED, WeightMode.CLASSICAL)
    return Workload(
        "certify",
        corpus,
        _rounds_of_five(cases),
        lambda case, spans: _certify_op(case, spans, modes),
        _certify_check,
        _certify_sample,
    )


def _deep_exact(corpus: List[Problem], work_dir: Path) -> Workload:
    rounds = []
    for r in range(len(corpus) // 5):
        cases = [Case(SAMPLE, s, THIRD, m=s // 2) for s in DEEP_SAMPLE_STEPS]
        cases.append(Case(CUBIC, DEEP_CUBIC_STEPS, Fraction(1), m=DEEP_CUBIC_STEPS))
        for t, steps in enumerate(DEEP_TEMPLATE_STEPS):
            cases.append(Case(corpus[5 * r + t], steps, THIRD, m=10 + 10 * ((r + t) % 8)))
        rounds.append(cases)
    modes = (WeightMode.INTERPOLATED,)
    return Workload(
        "deep-exact",
        corpus,
        rounds,
        lambda case, spans: _certify_op(case, spans, modes),
        _certify_check,
        _certify_sample,
    )


# ---------------------------------------------------------------------------
# grid-scan

def _grid_op(case: Case, spans):
    p = case.problem
    with spans.span("funcdsl.parse"):
        f = parse(p.text)
    with spans.span("verifier.grid_oracle"):
        return grid_oracle(f, p.a, p.b, case.epsilon, case.steps)


def _grid_check(case: Case, cert) -> List[str]:
    p = case.problem
    return [f"{p.name}: {x}" for x in checks.grid(cert, p.shape, p.a, p.b, case.epsilon, case.steps)]


def _grid_sample(case: Case, cert, spans) -> None:
    p = case.problem
    scanned = cert.index + 1
    spans.add("verifier.grid_oracle.points", scanned)
    spans.high("numerics.den_bits.max", max(bits(cert.x), bits(cert.f_x)))
    # At most 200 of the scanned grid points, evenly spread.
    stride = max(1, scanned // 200)
    points = [p.a + Fraction(k, case.steps) * (p.b - p.a) for k in range(0, scanned, stride)]
    _time_evals(spans, parse(p.text), points, [float(x) for x in points])


def _grid_scan(corpus: List[Problem], work_dir: Path) -> Workload:
    rounds = [
        [Case(q, GRID_N, GRID_EPSILON) for p in five for q in (p, mirror(p))]
        for five in _rounds_of_five(corpus)
    ]
    return Workload(
        "grid-scan",
        corpus,
        rounds,
        _grid_op,
        _grid_check,
        _grid_sample,
    )


# ---------------------------------------------------------------------------
# cli-pipeline

@dataclass
class CliResult:
    out_dir: Path
    codes: List[int] = field(default_factory=list)
    stdout: List[str] = field(default_factory=list)


def _cli_call(spans, name: str, argv: List[str], result: CliResult) -> None:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        with spans.span(f"cli.main.{name}"):
            code = cli.main(argv)
    result.codes.append(code)
    result.stdout.append(out.getvalue())


def _cli_paths(out_dir: Path):
    return out_dir / "float.jsonl", out_dir / "plot.svg", out_dir / "exact.jsonl"


def _cli_problem_flags(case: Case) -> List[str]:
    p = case.problem
    # Endpoints go as --a=VALUE: argparse reads a bare '-3/2' as an option.
    return ["-f", p.text, f"--a={p.a}", f"--b={p.b}", "-e", str(case.epsilon)]


def _cli_op(out_dir: Path, case: Case, spans) -> CliResult:
    """The five commands, writing into ``out_dir``, which must be new.

    Each operation gets a directory of its own: on ext4, truncating and
    rewriting the same file makes close() start writeback, and waiting
    for that disk write added about 5 ms to every operation here.
    """
    out_dir.mkdir()
    float_trace, svg, exact_trace = (str(x) for x in _cli_paths(out_dir))
    flags = _cli_problem_flags(case)
    result = CliResult(out_dir)
    float_flags = ["--backend", "float", "--max-steps", str(CLI_FLOAT_STEPS)]
    _cli_call(spans, "run", ["run", *flags, *float_flags, "--out", float_trace], result)
    _cli_call(spans, "plot", ["plot", "-t", float_trace, "-f", case.problem.text, "--out", svg], result)
    _cli_call(spans, "compare", ["compare", *flags, *float_flags], result)
    _cli_call(spans, "run", ["run", *flags, "--max-steps", str(case.steps), "--out", exact_trace], result)
    _cli_call(spans, "verify", ["verify", "-t", exact_trace, "-f", case.problem.text], result)
    return result


def _cli_check(case: Case, result: CliResult) -> List[str]:
    p = case.problem
    if result.codes != [0] * 5:
        return [f"{p.name}: exit codes {result.codes}"]
    float_path, svg_path, exact_path = _cli_paths(result.out_dir)
    problems, mids = checks.float_trace(float_path.read_text(), CLI_FLOAT_STEPS)
    problems += checks.svg(svg_path.read_text(), mids)
    table_rows = sum(1 for line in result.stdout[2].splitlines() if re.match(r"\s*\d+\s", line))
    if table_rows != CLI_FLOAT_STEPS:
        problems.append(f"compare printed {table_rows} rows, expected {CLI_FLOAT_STEPS}")
    rows, tail = checks.decode_exact_jsonl(exact_path.read_text())
    found, values = checks.exact_rows(
        rows, p.shape, p.a, p.b, case.epsilon, case.steps, False,
        Fraction(tail["limit_estimate"]), Fraction(tail["limit_error_bound"]))
    problems += found
    report = json.loads(result.stdout[4])
    if report.get("claim_holds") is not True or report.get("violations") != 0:
        problems.append("verify report does not say the claim holds")
    j = checks.first_witness(values, case.epsilon)
    named = (report["witness"]["kind"], report["witness"].get("index"))
    if named != ("midpoint" if j else "limit", j):
        problems.append(f"verify names witness {named}, expected step {j}")
    return [f"{p.name}: {x}" for x in problems]


def _cli_sample(case: Case, result: CliResult, spans) -> None:
    """Call the layers the five commands reach inside the program."""
    p = case.problem
    float_path, _, exact_path = _cli_paths(result.out_dir)
    with spans.span("funcdsl.parse"):
        f = parse(p.text)
    float_text, exact_text = float_path.read_text(), exact_path.read_text()
    with spans.span("core.trace_from_jsonl"):
        float_trace = trace_from_jsonl(float_text)
    with spans.span("core.trace_from_jsonl"):
        exact_trace = trace_from_jsonl(exact_text)
    config = ProblemConfig(a=float(p.a), b=float(p.b), epsilon=float(case.epsilon),
                           max_steps=CLI_FLOAT_STEPS, backend=FLOAT64)
    with spans.span("core.run"):
        run(config, f)
    spec = cli.PlotSpec(function=f, trace=float_trace)
    with spans.span("cli.render_trace_svg"):
        cli.render_trace_svg(spec)
    # run and compare's two runs in float, then one exact run
    spans.add("core.run.steps", len(float_trace.steps) * 3 + len(exact_trace.steps))
    spans.add("core.trace.bytes", len(float_text.encode()) + len(exact_text.encode()))
    exact_points = []
    for r in exact_trace.steps:
        exact_points += (r.a_n, r.b_n, r.c_n)
        spans.high("numerics.den_bits.max", max(bits(r.a_n), bits(r.b_n), bits(r.f_c_n)))
    lo, hi = float(p.a), float(p.b)
    samples = spec.samples
    float_points = [lo + i * (hi - lo) / (samples - 1) for i in range(samples)]
    float_points += [r.c_n for r in float_trace.steps]
    _time_evals(spans, f, exact_points, float_points)


def _cli_pipeline(corpus: List[Problem], work_dir: Path) -> Workload:
    numbers = itertools.count()
    return Workload(
        "cli-pipeline",
        corpus,
        _rounds_of_five([Case(p, CLI_EXACT_STEPS, THIRD) for p in corpus]),
        lambda case, spans: _cli_op(work_dir / f"op{next(numbers)}", case, spans),
        _cli_check,
        _cli_sample,
    )


# name -> (builder, corpus size).  A round holds one corpus function of
# each of the five templates, so any whole number of rounds has the same mix.
WORKLOADS = {
    "certify": (_certify, 200),
    "grid-scan": (_grid_scan, 300),
    "deep-exact": (_deep_exact, 100),
    "cli-pipeline": (_cli_pipeline, 200),
}


def build(name: str, seed: int, work_dir: Path) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")
    builder, size = WORKLOADS[name]
    return builder(make_corpus(seed, size), work_dir)


def probe(workload: Workload, work_dir: Path, spans, count: int = 3) -> None:
    """Reach every layer once per problem on ``count`` of this workload's problems.

    The traced run reports a layer from these calls only when the
    workload's own operations never reach it, so that every workload
    reports every layer with a measured figure.
    """
    problems = workload.corpus[:count]
    probe_dir = work_dir / "probe"
    probe_dir.mkdir()
    for name in ("certify", "grid-scan", "cli-pipeline"):
        other = WORKLOADS[name][0](problems, probe_dir)
        for i, case in enumerate(other.rounds[0]):
            spans.op_id = f"probe.{name}.{i}"
            other.sample(case, other.op(case, spans), spans)
