"""Quick self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Runs a few operations of every workload, which must pass their checks,
then feeds the checks two tampered outputs through the same path a run
counts failures by: a certify trace with one weight d_n changed, and a
grid certificate moved to a later grid point that also lies in the band.
Each must come back as a failed operation.  Exits 0 when all of that
holds.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
from fractions import Fraction

import run
from inputs import evaluate
from spans import Spans


def _tamper_weight(result):
    """Change d_3 of the interpolated trace; the rest of the trace stays as run."""
    certified = result[0]
    steps = list(certified.trace.steps)
    d = steps[2].d_n
    steps[2] = dataclasses.replace(steps[2], d_n=d / 2 if d else Fraction(1, 2))
    certified.trace = dataclasses.replace(certified.trace, steps=tuple(steps))
    return result


def _later_grid_point(case):
    """Move the certificate to the next grid point, which must also be in the band."""

    def tamper(cert):
        p, k = case.problem, cert.index + 1
        x = p.a + Fraction(k, case.steps) * (p.b - p.a)
        f_x = evaluate(p.shape, x)
        if not abs(f_x) < case.epsilon:
            raise SystemExit("self-test: the next grid point is outside the band; pick another case")
        return dataclasses.replace(cert, index=k, x=x, f_x=f_x)

    return tamper


def main() -> int:
    workloads = run.import_workloads()
    spans = Spans()
    work_dir = run.WORK / "selftest"
    work_dir.mkdir(parents=True, exist_ok=True)
    failed = []
    try:
        for name in workloads.WORKLOADS:
            workload = workloads.build(name, 1, work_dir)
            for case in workload.rounds[0][::3]:
                _, problems, _ = run.attempt(workload, case, spans)
                print(f"{name:>13} {case.problem.name:<24} {'FAILED' if problems else 'ok'}")
                if problems:
                    failed.append((name, problems))

        certify = workloads.build("certify", 1, work_dir)
        case = certify.rounds[0][0]
        _, problems, _ = run.attempt(certify, case, spans, tamper=_tamper_weight)
        print(f"tampered d_3 in a trace: {len(problems)} problem(s): {problems[:2]}")
        if not problems:
            failed.append(("tampered trace", ["counted as passing"]))

        grid = workloads.build("grid-scan", 1, work_dir)
        case = grid.rounds[0][0]
        _, problems, _ = run.attempt(grid, case, spans, tamper=_later_grid_point(case))
        print(f"tampered grid certificate: {len(problems)} problem(s): {problems[:2]}")
        if not problems:
            failed.append(("tampered grid certificate", ["counted as passing"]))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if run.WORK.exists() and not any(run.WORK.iterdir()):
            run.WORK.rmdir()

    for name, problems in failed:
        print(f"SELF-TEST FAILED: {name}: {problems[:3]}", file=sys.stderr)
    print("self-test " + ("failed" if failed else "passed"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
