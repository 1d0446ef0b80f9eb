"""Benchmark for interpbisect: one workload per process, closed loop.

Run one workload from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is the traced
run, which prints the per-layer metrics and writes its spans under
``perfbench/results/``.  ``--workload all`` runs every workload, each in
a fresh process, and prints a table.  The last line of standard output
is always one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

One caller, one thread: the next operation starts only after the
previous one and its checks are done.  Checks and the traced run's
layer samples happen outside the timed region.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import Spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORK = BENCH_DIR / "work"

MIN_OPS = 100       # p90 then has at least ten samples beyond it
SETUP_SAMPLES = 11  # fresh interpreters timed for setup_s, spread over the run
READY = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import interpbisect, interpbisect.cli; print('ready', flush=True)"
)

# Layer spans reported by the traced run, with the time unit of their
# metric: span "core.run" is reported as "core.run.ms" in ms/call.
LAYERS = {
    "funcdsl.parse": "us",
    "funcdsl.eval_exact": "us",
    "funcdsl.eval_float": "us",
    "core.run": "ms",
    "core.trace_to_jsonl": "ms",
    "core.trace_from_jsonl": "ms",
    "verifier.check_claim": "ms",
    "verifier.extract_witness": "ms",
    "verifier.continuity_budget_check": "ms",
    "verifier.grid_oracle": "ms",
    "cli.render_trace_svg": "ms",
    "cli.main.run": "ms",
    "cli.main.plot": "ms",
    "cli.main.compare": "ms",
    "cli.main.verify": "ms",
}
# Per-operation counters, averaged over operations.  They fix the amount of work.
COUNTS = ("core.run.steps", "verifier.grid_oracle.points", "core.trace.bytes")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def time_setup() -> float:
    """Seconds from starting a fresh interpreter until it has imported the program."""
    t0 = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-c", READY, str(SRC)],
                             stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = child.stdout.readline()
    elapsed = time.perf_counter() - t0
    child.stdout.close()
    if child.wait() != 0 or line.strip() != "ready":
        _fail("a fresh interpreter could not import interpbisect")
    return elapsed


def attempt(workload, case, spans, tamper=None):
    """Run one operation and its checks: (op seconds, problems, result)."""
    t0 = time.perf_counter()
    try:
        result = workload.op(case, spans)
    except Exception as exc:  # a failing operation is counted, not fatal
        return time.perf_counter() - t0, [f"{case.problem.name}: {exc!r}"], None
    elapsed = time.perf_counter() - t0
    if tamper is not None:
        result = tamper(result)
    try:
        problems = workload.check(case, result)
    except Exception as exc:  # malformed output fails its check
        problems = [f"{case.problem.name}: check raised {exc!r}"]
    return elapsed, problems, result


def measure(workload, seconds: float, traced: bool, work_dir: Path):
    """Closed loop over whole rounds for ``seconds``; returns the raw figures.

    Set-up is timed between rounds, about every ``seconds / SETUP_SAMPLES``
    seconds, so that its median does not hinge on one moment of the run.

    The traced run goes through each round twice, untraced and then
    traced, so that its overhead is measured on the same inputs in the
    same process.
    """
    spans = Spans()
    time_setup()  # the first start may compile bytecode; not counted
    for case in workload.rounds[0]:  # warm-up, untimed
        attempt(workload, case, spans)
    latencies = {False: [], True: []}
    failures = []
    setups = []
    start = time.perf_counter()
    index = 0
    while True:
        if time.perf_counter() - start >= len(setups) * seconds / SETUP_SAMPLES:
            setups.append(time_setup())
        tracing = traced and index % 2 == 1
        number = index // 2 if traced else index
        for case in workload.rounds[number % len(workload.rounds)]:
            spans.op_id, spans.enabled = f"{number}.{len(latencies[tracing])}", tracing
            elapsed, problems, result = attempt(workload, case, spans)
            if tracing and not problems:
                workload.sample(case, result, spans)
            spans.enabled = False
            latencies[tracing].append(elapsed)
            if problems:
                failures.append(problems)
        index += 1
        whole = tracing or not traced  # a traced run ends on a traced round
        enough = traced or len(latencies[False]) >= MIN_OPS
        if whole and enough and time.perf_counter() - start >= seconds:
            break
    if traced:
        import workloads

        spans.enabled = True
        workloads.probe(workload, work_dir, spans)
        spans.enabled = False
    return latencies, failures, spans, statistics.median(setups)


def end_to_end(latencies, setup_s: float) -> dict:
    ms = sorted(t * 1e3 for t in latencies)
    cuts = statistics.quantiles(ms, n=10, method="inclusive")
    return {
        "ops_per_s": {"value": len(ms) / (sum(ms) / 1e3), "unit": "1/s"},
        "op_ms.p50": {"value": statistics.median(ms), "unit": "ms"},
        "op_ms.p90": {"value": cuts[8], "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def _is_probe(op_id) -> bool:
    return op_id.startswith("probe.")


def per_layer(latencies, spans) -> dict:
    """Self time per call of each layer, the work counters, and the overhead.

    A layer is reported from the workload's own operations; only a layer
    they never reach is reported from the probe calls made after the
    timed loop.
    """
    sums = {}
    for name, op_id, self_s, calls in spans.self_times():
        key = (name, _is_probe(op_id))
        total, n = sums.get(key, (0.0, 0))
        sums[key] = (total + self_s, n + calls)
    metrics = {}
    for span, unit in LAYERS.items():
        total, calls = sums.get((span, False)) or sums[(span, True)]
        scale = 1e6 if unit == "us" else 1e3
        per = "eval" if "eval_" in span else "call"
        metrics[f"{span}.{unit}"] = {"value": total / calls * scale, "unit": f"{unit}/{per}"}
    per_op = [c for op_id, c in spans.counts.items() if not _is_probe(op_id)]
    for name in COUNTS:
        unit = "bytes/op" if name.endswith("bytes") else "count/op"
        value = sum(c.get(name, 0) for c in per_op) / max(1, len(per_op))
        metrics[name] = {"value": value, "unit": unit}
    metrics["numerics.den_bits.max"] = {
        "value": max((c.get("numerics.den_bits.max", 0) for c in per_op), default=0),
        "unit": "bits"}
    plain = len(latencies[False]) / sum(latencies[False])
    traced = len(latencies[True]) / sum(latencies[True])
    metrics["trace.ops_per_s"] = {"value": traced, "unit": "1/s"}
    metrics["trace.overhead_pct"] = {"value": (plain / traced - 1) * 100, "unit": "%"}
    return metrics


def import_workloads():
    if not (SRC / "interpbisect" / "__init__.py").is_file():
        _fail(f"no interpbisect sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def run_one(args) -> int:
    t_start = time.perf_counter()
    workloads = import_workloads()

    work_dir = WORK / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed, work_dir)
        latencies, failures, spans, setup_s = measure(workload, args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    for problems in failures[:5]:
        print("FAILED: " + "; ".join(problems[:3]), file=sys.stderr)
    attempted = sum(len(v) for v in latencies.values())
    if args.trace:
        metrics = per_layer(latencies, spans)
        RESULTS.mkdir(exist_ok=True)
        spans.dump(RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(latencies[False], setup_s)
    for name, m in metrics.items():
        print(f"{args.workload:>13} {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:>13} {'attempted':<36} {attempted:>14} "
          f"(failed {len(failures)}, run {time.perf_counter() - t_start:.1f} s)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process of its own; one table, one JSON line."""
    workloads = import_workloads()
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            _fail(f"workload {name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        help="certify, grid-scan, deep-exact, cli-pipeline or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
