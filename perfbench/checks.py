"""Independent checks on every operation's outputs.

Each check recomputes what the output must be from the generator's
coefficient data (``inputs.evaluate``) and from the method's defining
identities, never from ``interpbisect.funcdsl`` and never from stored
copies of earlier output.  A check returns a list of problems; an empty
list means the output passed.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from inputs import Shape, evaluate, textbook_bisection

# One exact step as the checks see it: (n, a_n, b_n, c_n, f_c_n, d_n).
Row = Tuple[int, Fraction, Fraction, Fraction, Fraction, Fraction]


def weight(f_c: Fraction, epsilon: Fraction, classical: bool) -> Fraction:
    if classical:
        return Fraction(0) if f_c < 0 else Fraction(1)
    return min(max(Fraction(1, 2) + f_c / epsilon, Fraction(0)), Fraction(1))


def exact_rows(
    rows: Sequence[Row],
    shape: Shape,
    a: Fraction,
    b: Fraction,
    epsilon: Fraction,
    steps: int,
    classical: bool,
    limit: Fraction,
    limit_bound: Fraction,
) -> Tuple[List[str], List[Fraction]]:
    """Replay an exact trace's identities; return problems and f(c_n) values.

    Width b_n - a_n = (b - a)/2^(n-1), midpoint c_n, f_c_n = f(c_n), the
    weight rule, the recurrence a_{n+1} = c_n - d_n (b - a)/2^n (and the
    same shift for b), the limit estimate and its error bound.
    """
    problems: List[str] = []
    width = b - a
    if len(rows) != steps:
        problems.append(f"{len(rows)} steps recorded, expected {steps}")
    if rows and (rows[0][1], rows[0][2]) != (a, b):
        problems.append("step 1 window is not [a, b]")
    values: List[Fraction] = []
    for i, (n, a_n, b_n, c_n, f_c, d_n) in enumerate(rows):
        if n != i + 1:
            problems.append(f"step index {n} at position {i + 1}")
        if b_n - a_n != width / 2 ** (n - 1):
            problems.append(f"step {n}: width identity fails")
        if c_n != (a_n + b_n) / 2:
            problems.append(f"step {n}: c_n is not the midpoint")
        value = evaluate(shape, c_n)
        values.append(value)
        if f_c != value:
            problems.append(f"step {n}: f_c_n differs from f(c_n)")
        if d_n != weight(value, epsilon, classical):
            problems.append(f"step {n}: d_n differs from the weight rule")
        if i + 1 < len(rows):
            shift = d_n * width / 2**n
            _, a_next, b_next, *_ = rows[i + 1]
            if a_next != c_n - shift or b_next != b_n - shift:
                problems.append(f"step {n}: recurrence to step {n + 1} fails")
    if rows:
        m = rows[-1][0]
        if limit != rows[-1][3]:
            problems.append("limit_estimate is not the last c_n")
        if limit_bound != width / 2 ** (m - 1):
            problems.append("limit_error_bound is not (b - a)/2^(m-1)")
    if classical:
        book = textbook_bisection(shape, a, b, steps)
        if [r[1:5] for r in rows] != [tuple(r) for r in book]:
            problems.append("classical trace differs from textbook bisection")
    return problems, values


def rows_of(trace) -> List[Row]:
    return [(r.n, r.a_n, r.b_n, r.c_n, r.f_c_n, r.d_n) for r in trace.steps]


def first_witness(values: Sequence[Fraction], epsilon: Fraction) -> Optional[int]:
    """1-based index of the first |f(c_n)| < epsilon, else None."""
    for n, value in enumerate(values, start=1):
        if abs(value) < epsilon:
            return n
    return None


def claim(outcomes, rows: Sequence[Row], values: Sequence[Fraction],
          shape: Shape, epsilon: Fraction) -> List[str]:
    """``check_claim`` output against the disjunction recomputed here."""
    from interpbisect import SignsStraddle, WitnessFound

    problems: List[str] = []
    if len(outcomes) != len(rows):
        return [f"{len(outcomes)} claim outcomes for {len(rows)} steps"]
    witness = None
    for outcome, (n, a_n, b_n, *_), value in zip(outcomes, rows, values):
        if witness is None and abs(value) < epsilon:
            witness = (n, value)
        case = outcome.case
        if outcome.m != n:
            problems.append(f"claim outcome {outcome.m} at step {n}")
        elif witness is not None:
            if not (isinstance(case, WitnessFound) and (case.j, case.value) == witness):
                problems.append(f"step {n}: expected witness at step {witness[0]}")
        else:
            f_a, f_b = evaluate(shape, a_n), evaluate(shape, b_n)
            if not f_a < 0 < f_b:
                problems.append(f"step {n}: neither disjunct holds")
            elif not (isinstance(case, SignsStraddle) and (case.f_a_m, case.f_b_m) == (f_a, f_b)):
                problems.append(f"step {n}: expected the straddle case")
    return problems


def witness(cert, rows: Sequence[Row], values: Sequence[Fraction], shape: Shape,
            epsilon: Fraction, limit: Fraction) -> List[str]:
    """``extract_witness`` output against the first midpoint witness."""
    j = first_witness(values, epsilon)
    if j is not None:
        expected = ("midpoint", rows[j - 1][3], values[j - 1], j)
    else:
        expected = ("limit", limit, evaluate(shape, limit), None)
    got = (cert.kind.value, cert.x, cert.f_x, cert.index)
    return [] if got == expected else [f"witness {got[0]}@{got[3]}, expected {expected[0]}@{expected[3]}"]


def budget(result, width: Fraction, delta: Fraction, m: int) -> List[str]:
    """``continuity_budget_check`` flags against the two exact comparisons."""
    expected = (delta, m, width / 2 ** (m - 1) < delta / 2, width / 2**m < delta / 2)
    got = (result.delta, result.m, result.limit_gap_ok, result.halfwidth_ok)
    return [] if got == expected else [f"continuity budget {got[2:]}, expected {expected[2:]}"]


def jsonl_ends(text: str, a: Fraction, b: Fraction, epsilon: Fraction,
               steps: int, mode: str, limit: Fraction) -> List[str]:
    """Config and final lines of an exact JSONL trace, decoded here."""
    lines = text.splitlines()
    head, tail = json.loads(lines[0]), json.loads(lines[-1])
    want = {"a": _text(a), "b": _text(b), "epsilon": _text(epsilon),
            "backend": "exact", "mode": mode, "max_steps": steps}
    problems = []
    if {k: head.get(k) for k in want} != want:
        problems.append("JSONL config line does not match the inputs")
    if len(lines) != steps + 2:
        problems.append(f"JSONL has {len(lines)} lines, expected {steps + 2}")
    if tail.get("limit_estimate") != _text(limit):
        problems.append("JSONL final line does not carry the limit estimate")
    return problems


def _text(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def decode_exact_jsonl(text: str) -> Tuple[List[Row], dict]:
    """(rows, final line) of an exact JSONL trace, decoded with json + Fraction."""
    lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    rows = [
        (s["n"], *(Fraction(s[k]) for k in ("a_n", "b_n", "c_n", "f_c_n", "d_n")))
        for s in lines[1:-1]
    ]
    return rows, lines[-1]


def grid(cert, shape: Shape, a: Fraction, b: Fraction, epsilon: Fraction, n: int) -> List[str]:
    """A GRID certificate is the first of a + k(b - a)/N with |f| < epsilon."""
    if cert is None:
        return ["no grid witness"]
    width = b - a
    for k in range(cert.index):
        if abs(evaluate(shape, a + Fraction(k, n) * width)) < epsilon:
            return [f"grid point {k} hits before the reported one"]
    x = a + Fraction(cert.index, n) * width
    if cert.kind.value != "grid" or cert.x != x:
        return [f"grid certificate x is not a + {cert.index}(b - a)/{n}"]
    value = evaluate(shape, x)
    if cert.f_x != value or not abs(value) < epsilon:
        return ["grid certificate f_x is not f(x) or is not within epsilon"]
    return []


def float_trace(text: str, steps: int) -> Tuple[List[str], List[float]]:
    """a_n < c_n < b_n and 0 <= d_n <= 1 at every step; returns the c_n."""
    lines = [json.loads(line) for line in text.splitlines() if line.strip()]
    step_lines = lines[1:-1]
    problems = []
    if len(step_lines) != steps:
        problems.append(f"float trace has {len(step_lines)} steps, expected {steps}")
    mids = []
    for s in step_lines:
        if not (s["a_n"] < s["c_n"] < s["b_n"]):
            problems.append(f"float step {s['n']}: c_n not strictly inside the window")
        if not 0 <= s["d_n"] <= 1:
            problems.append(f"float step {s['n']}: d_n outside [0, 1]")
        mids.append(s["c_n"])
    return problems, mids


def svg(text: str, mids: Sequence[float]) -> List[str]:
    """One ``midpoint-dot`` per step, in order, whose data-x is that c_n."""
    root = ET.fromstring(text)
    dots = [el for el in root.iter("{http://www.w3.org/2000/svg}circle")
            if el.get("class") == "midpoint-dot"]
    if len(dots) != len(mids):
        return [f"{len(dots)} midpoint dots for {len(mids)} steps"]
    for n, (dot, c_n) in enumerate(zip(dots, mids), start=1):
        if dot.get("data-step") != str(n) or float(dot.get("data-x")) != c_n:
            return [f"midpoint dot {n} does not mark c_{n}"]
    return []
