"""Command line contract: flags, exit codes, files written, SVG content."""

import ast
import hashlib
import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from interpbisect import ProblemConfig, TraceFormatError, cli, eval_exact, parse, run, verifier
from interpbisect import trace_from_jsonl, trace_to_jsonl
from interpbisect.cli import EXIT_CLAIM, EXIT_OK, EXIT_SIGN, EXIT_USAGE, main
from reference import SAMPLE_TEXT

F = Fraction

RUN_SAMPLE = [
    "run",
    "--function", SAMPLE_TEXT,
    "--a", "-1",
    "--b", "1",
    "--epsilon", "1/3",
]


def console_script():
    """The command prefix that runs the ``interpbisect`` console script.

    The installed script when it is on PATH; otherwise the target declared
    under ``[project.scripts]`` in pyproject.toml, run with the current
    interpreter the way pip's generated script runs it.
    """
    if shutil.which("interpbisect"):
        return ["interpbisect"]
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["interpbisect"]
    module, _, attr = target.partition(":")
    return [
        sys.executable, "-c",
        f"import sys; from {module} import {attr}; sys.exit({attr}())",
    ]


def run_cli(args, capsys):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_writes_trace_and_summarizes(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        code, stdout, _ = run_cli(RUN_SAMPLE + ["--out", out], capsys)
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 42  # config + 40 steps + final
        assert '"c_n":"0/1","f_c_n":"1/7","d_n":"13/14"' in lines[1]
        assert "witness: |f(c_1)| < epsilon at c_1 = 0/1, f = 1/7" in stdout
        assert "limit estimate:" in stdout

    def test_default_output_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(RUN_SAMPLE + ["--max-steps", "3"], capsys)
        assert code == EXIT_OK
        assert (tmp_path / "trace.jsonl").exists()

    def test_deterministic_bytes(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli(RUN_SAMPLE + ["--out", out1], capsys)
        run_cli(RUN_SAMPLE + ["--out", out2], capsys)
        assert out1.read_bytes() == out2.read_bytes()

    def test_float_backend(self, tmp_path, capsys):
        out = tmp_path / "f.jsonl"
        code, _, _ = run_cli(
            RUN_SAMPLE + ["--backend", "float", "--max-steps", "8", "--out", out], capsys
        )
        assert code == EXIT_OK
        trace = trace_from_jsonl(out.read_text())
        assert isinstance(trace.limit_estimate, float)

    def test_float_resolution_exhaustion_exits_2(self, tmp_path, capsys):
        out = tmp_path / "f.jsonl"
        code, _, stderr = run_cli(
            RUN_SAMPLE + ["--backend", "float", "--max-steps", "60", "--out", out], capsys
        )
        assert code == EXIT_USAGE == 2
        assert stderr.startswith("error: degenerate interval at step 56: [")
        assert not out.exists()

    def test_float_run_computes_nothing_past_its_last_step(self, tmp_path, capsys):
        # Step 56's window is degenerate (the 60-step test above), so a
        # 55-step run must not compute the window after its last record.
        out = tmp_path / "f.jsonl"
        code, stdout, err = run_cli(
            RUN_SAMPLE + ["--backend", "float", "--max-steps", "55", "--out", out], capsys
        )
        assert (code, err) == (EXIT_OK, "")
        assert f"wrote 55 steps to {out}\n" in stdout
        assert len(trace_from_jsonl(out.read_text()).steps) == 55

    def test_stop_early_computes_nothing_past_the_witness(self, tmp_path, capsys):
        # c_1 = 0 is a witness (|f| = 1/10 < 1/2), and c_2 = 1/5 is a pole.
        out = tmp_path / "s.jsonl"
        argv = ["run", "-f", "x - 1/10 + 0*(1/(x - 1/5))", "--a=-1", "--b", "1", "-e", "1/2",
                "--out", out]
        code, stdout, err = run_cli(argv + ["--stop-early"], capsys)
        assert (code, err) == (EXIT_OK, "")
        assert f"wrote 1 step to {out}\nstopped early at step 1\n" in stdout
        code, _, err = run_cli(argv, capsys)
        assert code == EXIT_USAGE
        assert err.startswith("evaluation: division by zero at x = 1/5 ")

    def test_stop_early(self, tmp_path, capsys):
        out = tmp_path / "s.jsonl"
        code, stdout, _ = run_cli(
            ["run", "-f", "x", "--a", "-1", "--b", "1", "-e", "1/2",
             "--stop-early", "--out", out],
            capsys,
        )
        assert code == EXIT_OK
        assert "stopped early at step 1" in stdout
        assert len(out.read_text().splitlines()) == 3

    def test_classical_mode_flag(self, tmp_path, capsys):
        out = tmp_path / "c.jsonl"
        code, _, _ = run_cli(
            RUN_SAMPLE + ["--mode", "classical", "--max-steps", "2", "--out", out], capsys
        )
        assert code == EXIT_OK
        assert '"mode":"classical"' in out.read_text().splitlines()[0]

    def test_reversed_interval_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["run", "-f", "x", "--a", "1", "--b", "-1", "-e", "1/3",
             "--out", tmp_path / "x.jsonl"],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "a < b" in err

    def test_zero_epsilon_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["run", "-f", "x", "--a", "-1", "--b", "1", "-e", "0",
             "--out", tmp_path / "x.jsonl"],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "epsilon" in err

    def test_unparsable_rational_flag(self, capsys):
        code, _, _ = run_cli(["run", "-f", "x", "--a", "abc", "--b", "1", "-e", "1/3"], capsys)
        assert code == EXIT_USAGE

    @pytest.mark.digit_limit
    @pytest.mark.parametrize(
        "function,a,b",
        [
            ("x - 1" + "0" * 5000, "0", "1" + "0" * 5001),
            ("x - 1" + "0" * 5000 + "/3", "0", "1" + "0" * 5001),
            ("x - 0." + "1" * 5001, "-0." + "1" * 5001, "1"),
        ],
        ids=["integer", "ratio", "decimal"],
    )
    def test_literals_of_any_length(self, function, a, b, tmp_path, capsys):
        code, stdout, err = run_cli(
            ["run", "-f", function, "--a", a, "--b", b, "-e", "1/3", "--max-steps", "3",
             "--out", tmp_path / "t.jsonl"],
            capsys,
        )
        assert (code, err) == (EXIT_OK, "")
        assert stdout.startswith("function: x-") and "\nwrote 3 steps to " in stdout

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(["run", "-f", "x", "--a", "-1", "--b", "1"], capsys)
        assert code == EXIT_USAGE

    def test_sign_violation_exits_3(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["run", "-f", "x+10", "--a", "-1", "--b", "1", "-e", "1/3",
             "--out", tmp_path / "x.jsonl"],
            capsys,
        )
        assert code == EXIT_SIGN
        assert "f(a) = 9" in err

    def test_syntax_error_exits_2_with_offset(self, capsys):
        code, _, err = run_cli(
            ["run", "-f", "min(", "--a", "-1", "--b", "1", "-e", "1/3"], capsys
        )
        assert code == EXIT_USAGE
        assert "offset 4" in err

    def test_division_by_zero_during_run(self, tmp_path, capsys):
        # f(0) divides by zero and 0 is the very first midpoint
        code, _, err = run_cli(
            ["run", "-f", "x+1/(100x)", "--a=-1/3", "--b", "1/3", "-e", "1/9",
             "--out", tmp_path / "x.jsonl"],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "division by zero" in err

    @pytest.mark.parametrize(
        "function",
        ["(" * 300 + "x" + ")" * 300, "-" * 500 + "x", "-" * 3000 + "x"],
        ids=["300-parentheses", "500-minus-signs", "3000-minus-signs"],
    )
    def test_nesting_too_deep_exits_2(self, function, tmp_path, capsys):
        # The parser takes four frames per parenthesis; 500 minus signs
        # parse but are too deep to print.
        out = tmp_path / "deep.jsonl"
        code, stdout, err = run_cli(
            ["run", f"-f={function}", "--a=-1", "--b=1", "-e", "1/3", "--out", out], capsys
        )
        assert code == EXIT_USAGE
        assert err.startswith("input nested too deeply: ") and err.count("\n") == 1
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "function,bounds,a,b",
        [
            ("x+1/3", ["--a", "-3/2", "--b", "1"], F(-3, 2), F(1)),
            ("x+2", ["--a", "-5/2", "--b", "-1/3"], F(-5, 2), F(-1, 3)),
        ],
    )
    def test_negative_fraction_endpoints(self, function, bounds, a, b, tmp_path, capsys):
        out = tmp_path / "n.jsonl"
        code, _, err = run_cli(
            ["run", "-f", function, *bounds, "-e", "1/3", "--out", out], capsys
        )
        assert code == EXIT_OK, err
        config = trace_from_jsonl(out.read_text()).config
        assert (config.a, config.b) == (a, b)

    def test_unknown_option_after_negative_fraction(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["run", "-f", "x+1/3", "--a", "-3/2", "--b", "1", "-e", "1/3",
             "--bogus", "--out", tmp_path / "x.jsonl"],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "unrecognized arguments: --bogus" in err

    @pytest.mark.parametrize("function", ["-1/3+x", "-x/2+3x/2-1/3", "-(1/3-x)", "-min(1/3-x,1)"])
    def test_function_starting_with_minus(self, function, tmp_path, capsys):
        problem = ["--a", "-1", "--b", "1", "-e", "1/3"]
        spaced, joined = tmp_path / "spaced.jsonl", tmp_path / "joined.jsonl"
        code, _, err = run_cli(["run", "-f", function, *problem, "--out", spaced], capsys)
        assert code == EXIT_OK, err
        code, _, err = run_cli(["run", f"-f={function}", *problem, "--out", joined], capsys)
        assert code == EXIT_OK, err
        assert spaced.read_bytes() == joined.read_bytes()

    def test_unknown_short_option_after_a_function_starting_with_minus(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["run", "-f", "-1/3+x", "--a", "-1", "--b", "1", "-e", "1/3",
             "-z", "--out", tmp_path / "x.jsonl"],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "unrecognized arguments: -z" in err

    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_version_flag(self, capsys):
        assert main(["--version"]) == EXIT_OK


@pytest.mark.digit_limit
class TestPinnedRunSummary:
    """``run``'s stdout, byte for byte, as recorded before the witness lines
    were read off the run's own records instead of a second evaluation."""

    CASES = {
        "exact-witness": (
            ["-f", SAMPLE_TEXT, "--a=-1", "--b=1", "-e", "1/3", "--max-steps", "6"],
            "function: min((1+6*x^2)/7, 8+9*x)\n"
            "wrote 6 steps to t.jsonl\n"
            "limit estimate: -201/224 (-0.897321429)\n"
            "limit error bound: 1/16\n"
            "witness: |f(c_1)| < epsilon at c_1 = 0/1, f = 1/7\n",
        ),
        "exact-no-witness": (
            ["-f", "x", "--a", "-1", "--b", "2", "-e", "1/1000000", "--max-steps", "5"],
            "function: x\n"
            "wrote 5 steps to t.jsonl\n"
            "limit estimate: 1/32 (0.031250000)\n"
            "limit error bound: 3/16\n"
            "no midpoint witness within 5 steps; limit candidate x = 1/32 "
            "with f(x) = 1/32 (0.031250000)\n",
        ),
        "float-witness": (
            ["-f", SAMPLE_TEXT, "--a=-1", "--b=1", "-e", "1/3", "--max-steps", "6",
             "--backend", "float"],
            "function: min((1+6*x^2)/7, 8+9*x)\n"
            "wrote 6 steps to t.jsonl\n"
            "limit estimate: -0.8973214285714286\n"
            "limit error bound: 0.0625\n"
            "first recorded |f(c_n)| < epsilon at step 1\n",
        ),
        "float-no-witness": (
            ["-f", "x", "--a", "-1", "--b", "2", "-e", "1/1000000", "--max-steps", "5",
             "--backend", "float"],
            "function: x\n"
            "wrote 5 steps to t.jsonl\n"
            "limit estimate: 0.03125\n"
            "limit error bound: 0.1875\n"
            "no recorded |f(c_n)| < epsilon within 5 steps\n",
        ),
        "exact-stop-early": (
            ["-f", SAMPLE_TEXT, "--a=-1", "--b=1", "-e", "1/10", "--stop-early"],
            "function: min((1+6*x^2)/7, 8+9*x)\n"
            "wrote 7 steps to t.jsonl\n"
            "stopped early at step 7\n"
            "limit estimate: -57/64 (-0.890625000)\n"
            "limit error bound: 1/32\n"
            "witness: |f(c_7)| < epsilon at c_7 = -57/64, f = -1/64\n",
        ),
        "float-stop-early": (
            ["-f", SAMPLE_TEXT, "--a=-1", "--b=1", "-e", "1/10", "--stop-early",
             "--backend", "float"],
            "function: min((1+6*x^2)/7, 8+9*x)\n"
            "wrote 7 steps to t.jsonl\n"
            "stopped early at step 7\n"
            "limit estimate: -0.890625\n"
            "limit error bound: 0.03125\n"
            "first recorded |f(c_n)| < epsilon at step 7\n",
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_summary(self, case, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        flags, expected = self.CASES[case]
        code, stdout, _ = run_cli(["run", *flags, "--out", "t.jsonl"], capsys)
        assert code == EXIT_OK
        assert stdout == expected

    def test_limit_candidate_past_640_digits(self, tmp_path, capsys, monkeypatch):
        # f at the limit candidate 2045/2048 has about 2,300 digits on each
        # side of the slash, so under a 640-digit text limit it prints
        # through Decimal.
        monkeypatch.chdir(tmp_path)
        code, stdout, _ = run_cli(
            ["run", "-f", "x^700-1/2", "--a", "0", "--b", "2", "-e", "1/1000000000",
             "--max-steps", "12", "--out", "t.jsonl"],
            capsys,
        )
        assert code == EXIT_OK
        lines = stdout.splitlines()
        assert lines[:4] == [
            "function: x^700-1/2",
            "wrote 12 steps to t.jsonl",
            "limit estimate: 2045/2048 (0.998535156)",
            "limit error bound: 1/1024",
        ]
        assert lines[4].startswith(
            "no midpoint witness within 12 steps; limit candidate x = 2045/2048 "
            "with f(x) = -1208009342270284650240942570068260863769984862622565802173"
        )
        assert lines[4].endswith("79868342501376 (-0.141613182)")
        assert len(stdout) == 4845
        assert hashlib.sha256(stdout.encode()).hexdigest() == (
            "030d68345338a438739d67afba432f0fdb5e69e2d0ec376c1bb21a667a29d95d"
        )


README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_session(command):
    """``(argv, output)`` of the README code block that starts ``$ interpbisect <command>``."""
    for block in re.findall(r"^```\w*\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S):
        first, _, output = block.partition("\n")
        if first.startswith(f"$ interpbisect {command} "):
            return shlex.split(first)[2:], output
    raise AssertionError(f"README has no {command!r} example")


class TestReadmeExamples:
    """The README's ``run`` and ``compare`` sessions are the real output."""

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_session(self, command, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv, output = _readme_session(command)
        code, stdout, _ = run_cli(argv, capsys)
        assert code == EXIT_OK
        assert stdout == output


class TestWitnessRule:
    """|f(c_n)| < epsilon is strict in run, compare and verify alike.

    For x - 1/2 on [-1, 1] at epsilon = 1/2, |f(c_1)| = |f(0)| = epsilon is
    no witness; the weight 0 keeps [0, 1], and f(c_2) = f(1/2) = 0 is one.
    """

    FLAGS = ["-f", "x - 1/2", "--a=-1", "--b", "1", "-e", "1/2", "--max-steps", "4"]

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_run_stops_and_names_step_2(self, backend, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        flags = [*self.FLAGS, "--backend", backend, "--out", out]
        witness = (
            "witness: |f(c_2)| < epsilon at c_2 = 1/2, f = 0/1\n" if backend == "exact"
            else "first recorded |f(c_n)| < epsilon at step 2\n"
        )
        code, stdout, _ = run_cli(["run", *flags, "--stop-early"], capsys)
        assert code == EXIT_OK
        assert f"wrote 2 steps to {out}\nstopped early at step 2\n" in stdout
        assert stdout.endswith(witness)
        code, stdout, _ = run_cli(["run", *flags], capsys)
        assert code == EXIT_OK
        assert f"wrote 4 steps to {out}\n" in stdout and stdout.endswith(witness)

    @pytest.mark.parametrize("backend", ["exact", "float"])
    def test_compare_names_step_2(self, backend, capsys):
        code, stdout, _ = run_cli(["compare", *self.FLAGS, "--backend", backend], capsys)
        assert code == EXIT_OK
        assert stdout.endswith(
            "interpolated: first |f(c_n)| < epsilon at step 2\n"
            "classical: first |f(c_n)| < epsilon at step 2\n"
        )

    def test_verify_reads_step_1_as_a_straddle(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert run_cli(["run", *self.FLAGS, "--stop-early", "--out", out], capsys)[0] == EXIT_OK
        code, stdout, err = run_cli(["verify", "-t", out, "-f", "x - 1/2"], capsys)
        assert (code, err) == (EXIT_OK, "")
        report = json.loads(stdout)
        assert report["claim"] == [
            {"m": 1, "case": "straddle", "f_a_m": "-3/2", "f_b_m": "1/2"},
            {"m": 2, "case": "witness", "j": 2, "value": "0/1"},
        ]
        assert report["witness"] == {"kind": "midpoint", "x": "1/2", "f_x": "0/1", "index": 2}


class TestVerify:
    @pytest.fixture()
    def trace_path(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert run_cli(RUN_SAMPLE + ["--out", out], capsys)[0] == EXIT_OK
        return out

    def test_clean_trace_verifies(self, trace_path, capsys):
        code, stdout, _ = run_cli(
            ["verify", "--trace", trace_path, "--function", SAMPLE_TEXT], capsys
        )
        assert code == EXIT_OK
        report = json.loads(stdout)
        assert report["claim_holds"] is True
        assert report["violations"] == 0
        assert report["witness"]["kind"] == "midpoint"

    def test_budget_flags(self, trace_path, capsys):
        code, stdout, _ = run_cli(
            ["verify", "-t", trace_path, "-f", SAMPLE_TEXT, "--delta", "1/8", "--m", "6"],
            capsys,
        )
        assert code == EXIT_OK
        report = json.loads(stdout)
        budget = report["continuity_budget"]
        assert budget["halfwidth_within_half_delta"] is True
        assert budget["limit_gap_within_half_delta"] is False

    def test_budget_flags_must_pair(self, trace_path, capsys):
        code, _, err = run_cli(
            ["verify", "-t", trace_path, "-f", SAMPLE_TEXT, "--delta", "1/8"], capsys
        )
        assert code == EXIT_USAGE
        assert "--delta and --m" in err

    def test_wrong_function_is_a_violation(self, trace_path, capsys):
        code, stdout, err = run_cli(
            ["verify", "-t", trace_path, "-f", "x+10"], capsys
        )
        assert code == EXIT_CLAIM
        report = json.loads(stdout)
        assert report["claim_holds"] is False
        assert "claim violated at step" in err

    def test_tampered_step_is_a_violation(self, tmp_path, capsys):
        # a witness-free straddling trace (f = x, tiny epsilon), with one
        # step's endpoints replaced by an interval that does not straddle
        trace = tmp_path / "straddle.jsonl"
        run_cli(
            ["run", "-f", "x", "--a=-1", "--b", "2", "-e", "1/1000",
             "--mode", "classical", "--max-steps", "5", "--out", trace],
            capsys,
        )
        lines = trace.read_text().splitlines()
        assert lines[3].startswith('{"n":3')
        lines[3] = (
            '{"n":3,"a_n":"2/1","b_n":"3/1","c_n":"5/2","f_c_n":"5/2","d_n":"1/1"}'
        )
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code, stdout, err = run_cli(["verify", "-t", bad, "-f", "x"], capsys)
        assert code == EXIT_CLAIM
        report = json.loads(stdout)
        cases = [entry["case"] for entry in report["claim"]]
        assert cases == ["straddle", "straddle", "violation", "straddle", "straddle"]
        assert "claim violated at step 3" in err

    @pytest.mark.parametrize("witness", [False, True])
    def test_each_midpoint_is_evaluated_once(self, tmp_path, capsys, monkeypatch, witness):
        # check_claim evaluates c_n, a_n, b_n step by step up to the
        # witness; the certificate reuses its value, and only a run with
        # no witness evaluates the limit estimate on top.
        out = tmp_path / "t.jsonl"
        if witness:
            run_cli(RUN_SAMPLE + ["--out", out], capsys)
            text = SAMPLE_TEXT
        else:
            run_cli(
                ["run", "-f", "x", "--a=-1", "--b", "2", "-e", "1/1000",
                 "--mode", "classical", "--max-steps", "5", "--out", out],
                capsys,
            )
            text = "x"
        trace = trace_from_jsonl(out.read_text())
        calls = []

        def counting(f, x):
            calls.append(x)
            return eval_exact(f, x)

        monkeypatch.setattr(verifier, "eval_exact", counting)
        code, stdout, _ = run_cli(["verify", "-t", out, "-f", text], capsys)
        assert code == EXIT_OK
        if witness:
            assert json.loads(stdout)["witness"]["index"] == 1
            assert calls == [trace.steps[0].c_n]
        else:
            assert json.loads(stdout)["witness"]["kind"] == "limit"
            points = [x for rec in trace.steps for x in (rec.c_n, rec.a_n, rec.b_n)]
            assert calls == points + [trace.limit_estimate]

    def test_malformed_trace_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "garbage.jsonl"
        bad.write_text("this is not a trace\n")
        code, _, err = run_cli(["verify", "-t", bad, "-f", "x"], capsys)
        assert code == EXIT_USAGE
        assert "trace:" in err

    def test_truncated_trace_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert run_cli(RUN_SAMPLE + ["--max-steps", "5", "--out", out], capsys)[0] == EXIT_OK
        lines = out.read_text().splitlines()
        out.write_text("\n".join(lines[:5] + lines[6:]) + "\n")  # step 5 removed
        code, stdout, err = run_cli(["verify", "-t", out, "-f", SAMPLE_TEXT], capsys)
        assert code == EXIT_USAGE and stdout == ""
        assert "trace: line 6: 4 steps, max_steps 5, no stopped_early_at" in err

    @pytest.mark.digit_limit
    def test_max_steps_of_any_length(self, tmp_path, capsys):
        # One stop-early step of a run allowed 10^5000: max_steps's text
        # has 5,001 digits, past CPython's int <-> text limit.
        config = ProblemConfig(F(-1), F(1), F(1, 2), max_steps=10**5000, stop_early=True)
        trace = run(config, parse("x"))
        text = trace_to_jsonl(trace)
        assert trace_from_jsonl(text) == trace
        out = tmp_path / "t.jsonl"
        out.write_text(text)
        code, _, err = run_cli(["verify", "-t", out, "-f", "x"], capsys)
        assert (code, err) == (EXIT_OK, "")
        # Without stop_early, one step falls short of max_steps.
        unstopped = text.replace(',"stop_early":true', "").replace(',"stopped_early_at":1', "")
        with pytest.raises(TraceFormatError) as info:
            trace_from_jsonl(unstopped)
        assert str(info.value) == f"line 3: 1 steps, max_steps 1{'0' * 5000}, no stopped_early_at"

    @pytest.mark.parametrize(
        "epsilon,steps,stopped,message",
        [
            # run --stop-early stops at step 1 here: |f(c_1)| = 1/7 < 1/3.
            ("1/3", 5, 5, "trace records an early stop at step 5, but the first "
                          "|f(c_n)| < epsilon is at step 1"),
            ("1/3", 5, None, "trace records no early stop, but the first "
                             "|f(c_n)| < epsilon is at step 1"),
            ("1/1000", 2, 2, "trace records an early stop at step 2, but no step "
                             "has |f(c_n)| < epsilon"),
        ],
        ids=["late-stop", "missing-stop", "stop-without-witness"],
    )
    def test_early_stop_off_the_first_witness_is_a_claim_failure(
        self, tmp_path, capsys, epsilon, steps, stopped, message
    ):
        # A run without --stop-early, relabelled as one that stopped early.
        out = tmp_path / "t.jsonl"
        argv = ["run", "-f", SAMPLE_TEXT, "--a=-1", "--b=1", "-e", epsilon,
                "--max-steps", str(steps), "--out", out]
        assert run_cli(argv, capsys)[0] == EXIT_OK
        lines = out.read_text().splitlines()
        lines[0] = lines[0][:-1] + ',"stop_early":true}'
        if stopped is not None:
            lines[-1] = lines[-1][:-1] + f',"stopped_early_at":{stopped}}}'
        out.write_text("\n".join(lines) + "\n")
        code, stdout, err = run_cli(["verify", "-t", out, "-f", SAMPLE_TEXT], capsys)
        assert code == EXIT_CLAIM and json.loads(stdout)["claim_holds"] is True
        assert err == message + "\n"

    def test_early_stop_at_the_first_witness_verifies(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert run_cli(RUN_SAMPLE + ["--stop-early", "--out", out], capsys)[0] == EXIT_OK
        assert trace_from_jsonl(out.read_text()).stopped_early_at == 1
        code, _, err = run_cli(["verify", "-t", out, "-f", SAMPLE_TEXT], capsys)
        assert code == EXIT_OK and err == ""

    @pytest.mark.parametrize(
        "old,new,field",
        [('"d_n":"13/14"', '"d_n":"26/28"', "d_n"), ('"c_n":"0/1"', '"c_n": "0/1"', "c_n")],
    )
    def test_hand_edited_step_line_is_usage_error(self, tmp_path, capsys, old, new, field):
        out = tmp_path / "t.jsonl"
        assert run_cli(RUN_SAMPLE + ["--max-steps", "5", "--out", out], capsys)[0] == EXIT_OK
        text = out.read_text()
        assert text.count(old) == 1
        out.write_text(text.replace(old, new))
        code, stdout, err = run_cli(["verify", "-t", out, "-f", SAMPLE_TEXT], capsys)
        assert code == EXIT_USAGE and stdout == ""
        assert err == f"trace: line 2: step line departs from the writer's form at {field!r}\n"

    def test_deeply_nested_trace_line_is_usage_error(self, tmp_path, capsys):
        # The reader matches each line against the writer's grammar, which does not recurse.
        bad = tmp_path / "deep.jsonl"
        bad.write_text(("[" * 100_000 + "]" * 100_000 + "\n") * 3)
        code, _, err = run_cli(["verify", "-t", bad, "-f", "x"], capsys)
        assert code == EXIT_USAGE
        assert err == "trace: line 1: config line departs from the writer's form at 'a'\n"

    @pytest.mark.parametrize("name", ["double", ["exact"], None, 1])
    def test_unknown_backend_is_usage_error(self, trace_path, capsys, name):
        lines = trace_path.read_text().splitlines()
        head = json.loads(lines[0])
        head["backend"] = name
        trace_path.write_text("\n".join([json.dumps(head)] + lines[1:]) + "\n")
        code, _, err = run_cli(["verify", "-t", trace_path, "-f", SAMPLE_TEXT], capsys)
        assert code == EXIT_USAGE
        # json.dumps's spaced separators depart from the writer's form at the first field.
        assert err == "trace: line 1: config line departs from the writer's form at 'a'\n"

    @pytest.mark.parametrize("key,value", [("max_steps", 2.5), ("max_steps", True), ("stop_early", "no")])
    def test_mistyped_head_flag_is_usage_error(self, trace_path, capsys, key, value):
        lines = trace_path.read_text().splitlines()
        head = json.loads(lines[0])
        head[key] = value
        trace_path.write_text("\n".join([json.dumps(head)] + lines[1:]) + "\n")
        code, _, err = run_cli(["verify", "-t", trace_path, "-f", SAMPLE_TEXT], capsys)
        assert code == EXIT_USAGE
        assert err == "trace: line 1: config line departs from the writer's form at 'a'\n"

    def test_missing_trace_file(self, tmp_path, capsys):
        code, _, _ = run_cli(["verify", "-t", tmp_path / "nope.jsonl", "-f", "x"], capsys)
        assert code == EXIT_USAGE

    def test_float_trace_is_refused(self, tmp_path, capsys):
        out = tmp_path / "f.jsonl"
        run_cli(RUN_SAMPLE + ["--backend", "float", "--out", out], capsys)
        code, _, err = run_cli(["verify", "-t", out, "-f", SAMPLE_TEXT], capsys)
        assert code == EXIT_USAGE
        assert "exact" in err


class TestCompare:
    def test_table_and_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "cmp.csv"
        code, stdout, _ = run_cli(
            ["compare", "-f", SAMPLE_TEXT, "--a", "-1", "--b", "1", "-e", "1/3",
             "--max-steps", "6", "--csv", csv_path],
            capsys,
        )
        assert code == EXIT_OK
        rows = [line for line in stdout.splitlines() if re.match(r"\s+\d+ ", line)]
        assert len(rows) == 6
        assert "interpolated: first |f(c_n)| < epsilon at step 1" in stdout
        assert "classical: first |f(c_n)| < epsilon at step 1" in stdout

        csv_lines = csv_path.read_text().splitlines()
        assert csv_lines[0] == "n,c_interp,f_interp,d_interp,c_classical,f_classical"
        assert csv_lines[1] == "1,0/1,1/7,13/14,0/1,1/7"
        assert csv_lines[2] == "2,-3/7,103/343,1/1,-1/2,5/14"
        assert len(csv_lines) == 7

    def test_no_csv_by_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, stdout, _ = run_cli(
            ["compare", "-f", "x", "--a", "-1", "--b", "2", "-e", "1/10",
             "--max-steps", "4"],
            capsys,
        )
        assert code == EXIT_OK
        assert list(tmp_path.iterdir()) == []

    def test_sign_violation_propagates(self, capsys):
        code, _, _ = run_cli(
            ["compare", "-f", "x+10", "--a", "-1", "--b", "1", "-e", "1/3"], capsys
        )
        assert code == EXIT_SIGN


class TestPlot:
    @pytest.fixture()
    def short_trace(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        run_cli(RUN_SAMPLE + ["--max-steps", "6", "--out", out], capsys)
        return out

    def test_svg_structure(self, short_trace, tmp_path, capsys):
        svg_path = tmp_path / "p.svg"
        code, _, _ = run_cli(
            ["plot", "-t", short_trace, "-f", SAMPLE_TEXT, "--out", svg_path], capsys
        )
        assert code == EXIT_OK
        svg = svg_path.read_text()
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        dots = re.findall(r'<circle class="midpoint-dot"[^>]*/>', svg)
        assert len(dots) == 6
        assert 'data-x="0/1"' in dots[0] and 'data-y="1/7"' in dots[0]
        assert svg.count('class="limit-marker"') == 1
        assert "ε = 1/3" in svg
        assert "<desc>min((1+6*x^2)/7, 8+9*x)</desc>" in svg

    def test_deterministic_bytes(self, short_trace, tmp_path, capsys):
        p1, p2 = tmp_path / "p1.svg", tmp_path / "p2.svg"
        run_cli(["plot", "-t", short_trace, "-f", SAMPLE_TEXT, "--out", p1], capsys)
        run_cli(["plot", "-t", short_trace, "-f", SAMPLE_TEXT, "--out", p2], capsys)
        assert p1.read_bytes() == p2.read_bytes()

    def test_single_step_trace_plots(self, tmp_path, capsys):
        trace = tmp_path / "one.jsonl"
        run_cli(
            ["run", "-f", "x", "--a", "-1", "--b", "1", "-e", "1/2",
             "--max-steps", "1", "--out", trace],
            capsys,
        )
        svg_path = tmp_path / "one.svg"
        code, _, _ = run_cli(["plot", "-t", trace, "-f", "x", "--out", svg_path], capsys)
        assert code == EXIT_OK
        assert 'data-x="0/1"' in svg_path.read_text()

    def test_explicit_ranges(self, short_trace, tmp_path, capsys):
        svg_path = tmp_path / "r.svg"
        code, _, _ = run_cli(
            ["plot", "-t", short_trace, "-f", SAMPLE_TEXT, "--out", svg_path,
             "--x-min", "-2", "--x-max", "2", "--y-min", "-2", "--y-max", "2"],
            capsys,
        )
        assert code == EXIT_OK

    def test_range_flags_must_pair(self, short_trace, tmp_path, capsys):
        code, _, err = run_cli(
            ["plot", "-t", short_trace, "-f", SAMPLE_TEXT,
             "--out", tmp_path / "r.svg", "--x-min", "-2"],
            capsys,
        )
        assert code == EXIT_USAGE
        assert "--x-min and --x-max" in err

    def test_too_few_samples(self, short_trace, tmp_path, capsys):
        code, _, _ = run_cli(
            ["plot", "-t", short_trace, "-f", SAMPLE_TEXT,
             "--out", tmp_path / "r.svg", "--samples", "1"],
            capsys,
        )
        assert code == EXIT_USAGE

    def test_samples_are_capped(self, short_trace, tmp_path, capsys):
        # Rendering time and memory grow linearly in the sample count.
        svg_path = tmp_path / "r.svg"
        argv = ["plot", "-t", short_trace, "-f", SAMPLE_TEXT, "--out", svg_path, "--samples"]
        code, _, err = run_cli([*argv, "65537"], capsys)
        assert (code, err) == (EXIT_USAGE, "error: at most 65536 curve samples, got 65537\n")
        assert not svg_path.exists()
        code, _, err = run_cli([*argv, "65536"], capsys)
        assert (code, err) == (EXIT_OK, "")
        assert svg_path.read_text().count(" L") == 65535

    @pytest.mark.parametrize(
        "samples,message",
        [
            (-10**5000, "need at least 2 curve samples, got -1"),
            (10**5000, "at most 65536 curve samples, got 1"),
        ],
        ids=["negative", "positive"],
    )
    def test_a_refused_sample_count_of_any_length_is_printed(self, samples, message):
        # 5,001 digits: past CPython's default limit for int-to-text conversion.
        f = parse(SAMPLE_TEXT)
        trace = run(ProblemConfig(Fraction(-1), Fraction(1), Fraction(1, 2), max_steps=2), f)
        with pytest.raises(cli.PlotError) as err:
            cli.render_trace_svg(cli.PlotSpec(function=f, trace=trace, samples=samples))
        assert str(err.value) == message + "0" * 5000

    def test_function_with_pole_still_plots(self, tmp_path, capsys):
        # curve sampling tolerates isolated evaluation failures
        trace = tmp_path / "t.jsonl"
        run_cli(
            ["run", "-f", "x", "--a", "-1", "--b", "1", "-e", "1/2",
             "--max-steps", "1", "--out", trace],
            capsys,
        )
        svg_path = tmp_path / "pole.svg"
        # pole at x = -1/2, which the 33-point sampling grid hits exactly
        # but the trace's midpoints and limit (all 0) do not
        code, _, _ = run_cli(
            ["plot", "-t", trace, "-f", "1/(2x+1)+x", "--out", svg_path, "--samples", "33"],
            capsys,
        )
        assert code == EXIT_OK
        assert "<path" in svg_path.read_text()


    @pytest.mark.parametrize("y_range", [[], ["--y-min=-2", "--y-max=2"]], ids=["auto", "explicit"])
    def test_non_finite_values_plot_on_the_frame(self, tmp_path, capsys, y_range):
        # x^1000 overflows to inf at the first two midpoints of the float run.
        trace, svg_path = tmp_path / "t.jsonl", tmp_path / "p.svg"
        argv = ["run", "-f", "x^1000 - 1", "--a=0", "--b=10", "-e", "1/3", "--max-steps", "5", "--backend", "float"]
        assert run_cli([*argv, "--out", trace], capsys)[0] == EXIT_OK
        code, _, err = run_cli(["plot", "-t", trace, "-f", "x^1000 - 1", "--out", svg_path, *y_range], capsys)
        assert (code, err) == (EXIT_OK, "")
        svg = svg_path.read_text()
        coordinates = re.findall(r' (?:cx|cy|x|y)="([^"]*)"', svg)
        assert coordinates and all(math.isfinite(float(v)) for v in coordinates)
        # +inf sits on the frame's top edge (y = 28); data-y keeps the recorded text.
        assert svg.count('cy="28.000" r="3.0" fill="#1a1a1a" data-step=') == 2
        assert svg.count('data-y="inf"') == 2

    @pytest.mark.parametrize(
        "function,b,backend",
        [("x - 10^400", 2 * 10**400, "exact"), ("x - 10^308", 17 * 10**307, "float")],
        ids=["exact-values", "float-coordinates"],
    )
    def test_values_past_the_float_range_plot_on_the_frame(self, function, b, backend, tmp_path, capsys):
        # Exact: both midpoints and the limit are 10^400, past the largest float.
        # Float: c_1 = 8.5e307 is finite, but its pixel coordinate is not.
        trace, svg_path = tmp_path / "t.jsonl", tmp_path / "p.svg"
        argv = ["-f", function, "--a", "0", "--b", str(b), "-e", "1", "--max-steps", "2", "--backend", backend]
        assert run_cli(["run", *argv, "--out", trace], capsys)[0] == EXIT_OK
        code, _, err = run_cli(
            ["plot", "-t", trace, "-f", function, "--out", svg_path,
             "--x-min", "0", "--x-max", "1", "--y-min=-1", "--y-max", "1"],
            capsys,
        )
        assert (code, err) == (EXIT_OK, "")
        svg = svg_path.read_text()
        coordinates = re.findall(r' (?:cx|cy|x|y)="([^"]*)"', svg)
        assert coordinates and all(math.isfinite(float(v)) for v in coordinates)
        # Both dots on the frame's right edge (x = 690); data-x keeps the recorded text.
        assert svg.count('cx="690.000"') == 2
        if backend == "exact":
            assert 'class="limit-marker" x="685.500"' in svg
            assert svg.count(f'data-x="{10**400}/1"') == 3

    def test_x_range_past_the_float_range_is_refused(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        argv = ["-f", "x - 10^400", "--a", "0", "--b", str(2 * 10**400), "-e", "1", "--max-steps", "2"]
        assert run_cli(["run", *argv, "--out", trace], capsys)[0] == EXIT_OK
        code, _, err = run_cli(["plot", "-t", trace, "-f", "x - 10^400", "--out", tmp_path / "p.svg"], capsys)
        assert (code, err) == (EXIT_USAGE, "error: degenerate x range [0.0, inf]\n")


class TestBeyondFloatRange:
    """Values past the largest float: exact summaries print inf, float inputs are usage errors."""

    BIG = str(10**400)  # 401 digits, past the largest float

    def test_exact_run_prints_inf(self, tmp_path, capsys):
        code, stdout, err = run_cli(
            ["run", "-f", "x - 10^400", "--a", "0", "--b", str(2 * 10**400), "-e", "1",
             "--max-steps", "2", "--out", tmp_path / "t.jsonl"],
            capsys,
        )
        assert (code, err) == (EXIT_OK, "")
        assert f"limit estimate: {self.BIG}/1 (inf)" in stdout

    def test_exact_run_prints_inf_for_the_limit_candidate(self, tmp_path, capsys):
        code, stdout, err = run_cli(
            ["run", "-f", "10^400 * x", "--a=-1", "--b", "3", "-e", "1",
             "--max-steps", "1", "--out", tmp_path / "t.jsonl"],
            capsys,
        )
        assert (code, err) == (EXIT_OK, "")
        assert f"with f(x) = {self.BIG}/1 (inf)" in stdout

    def test_exact_compare_prints_inf(self, capsys):
        code, stdout, err = run_cli(
            ["compare", "-f", "x - 10^400", "--a", "0", "--b", str(2 * 10**400), "-e", "1",
             "--max-steps", "2"],
            capsys,
        )
        assert (code, err) == (EXIT_OK, "")
        rows = [line.split() for line in stdout.splitlines() if re.match(r"\s+\d+ ", line)]
        assert rows == [
            ["1", "inf", "0.000000000", "inf", "0.000000000"],
            ["2", "inf", "0.000000000", "inf", "-inf"],
        ]

    @pytest.mark.parametrize(
        "args",
        [
            ["run", "--backend", "float", "-f", "x", "--a=-1", "--b", BIG, "-e", "1/3"],
            ["run", "--backend", "float", "-f", f"x - {BIG}", "--a=-1", "--b", "1", "-e", "1/3"],
            ["plot", "-f", "x", "--x-min", "0", "--x-max", BIG],
        ],
        ids=["float-endpoint", "float-constant", "plot-range"],
    )
    def test_float_inputs_are_usage_errors(self, tmp_path, capsys, args):
        trace = tmp_path / "t.jsonl"
        assert run_cli(RUN_SAMPLE + ["--max-steps", "3", "--out", trace], capsys)[0] == EXIT_OK
        if args[0] == "plot":
            args = args + ["-t", trace]
        code, _, err = run_cli(args + ["--out", tmp_path / "out"], capsys)
        assert code == EXIT_USAGE
        assert err.startswith("float range: ") and err.count("\n") == 1


class TestInProcessCalls:
    """``main`` shares one argument parser between calls; no call sees another's."""

    def session(self, root, order, capsys):
        root.mkdir()
        exact, floats = root / "exact.jsonl", root / "float.jsonl"
        problem = ["-f", SAMPLE_TEXT, "--a", "-1", "--b", "1", "-e", "1/3"]
        later = {
            "verify": ["verify", "-t", exact, "-f", SAMPLE_TEXT],
            "plot": ["plot", "-t", floats, "-f", SAMPLE_TEXT, "--out", root / "plot.svg"],
            "compare": ["compare", *problem, "--csv", root / "compare.csv"],
        }
        calls = {
            "no epsilon": ["run", "-f", SAMPLE_TEXT, "--a", "-1", "--b", "1"],
            "unknown flag": [*RUN_SAMPLE, "--bogus"],
            "version": ["--version"],
            "float run": ["run", *problem, "--backend", "float", "--out", floats],
            "exact run": ["run", *problem, "--out", exact],
        }
        calls.update((name, later[name]) for name in order)
        results = {}
        for name, argv in calls.items():
            code, out, err = run_cli(argv, capsys)
            results[name] = (code, out.replace(str(root), "<dir>"), err)
        assert trace_from_jsonl(exact.read_text()).config.backend.name == "exact"
        files = {path.name: path.read_bytes() for path in root.iterdir()}
        return results, files

    def test_outputs_do_not_depend_on_earlier_calls(self, tmp_path, capsys):
        cli._parser.cache_clear()
        first = self.session(tmp_path / "first", ("verify", "plot", "compare"), capsys)
        second = self.session(tmp_path / "second", ("compare", "plot", "verify"), capsys)
        assert cli._parser.cache_info().misses == 1
        assert first == second
        codes = {name: code for name, (code, _, _) in first[0].items()}
        assert codes.pop("no epsilon") == codes.pop("unknown flag") == EXIT_USAGE
        assert set(codes.values()) == {EXIT_OK}
        assert sorted(first[1]) == ["compare.csv", "exact.jsonl", "float.jsonl", "plot.svg"]


# Run by a fresh interpreter: the modules ``import interpbisect,
# interpbisect.cli`` loads, then what a star import binds and what the
# lazily loaded names resolve to.
_IMPORT_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import interpbisect, interpbisect.cli
loaded = sorted(set(sys.modules) - before)
grid = sorted(name for name in vars(interpbisect.funcdsl) if "grid" in name or name in (
    "_NoColumn", "_magnitude"))
star = {}
exec("from interpbisect import *", star)
from interpbisect import cli
lazy = (interpbisect.check_claim, cli.PlotSpec, cli.render_trace_svg, cli.PlotError)
print(repr((loaded, grid, sorted(set(star) - {"__builtins__"}), sorted(interpbisect.__all__),
            [f"{x.__module__}.{x.__name__}" for x in lazy])))
"""


# Run by a fresh interpreter: an exact and a float trace, each read back
# by trace_from_jsonl, and whether json is loaded after that.
_READER_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from fractions import Fraction
from interpbisect import FLOAT64, ProblemConfig, parse, run, trace_from_jsonl, trace_to_jsonl
exact = ProblemConfig(Fraction(-1), Fraction(1), Fraction(1, 3), max_steps=12, stop_early=True)
# x^1000 overflows to inf at every midpoint past 2: f_c_n is Infinity.
floats = ProblemConfig(0.0, 10.0, 1 / 3, max_steps=5, backend=FLOAT64)
for config, f in ((exact, "min((1+6x^2)/7, 8+9x)"), (floats, "x^1000 - 1")):
    trace = run(config, parse(f))
    assert trace_from_jsonl(trace_to_jsonl(trace)) == trace
print(repr(sorted(name for name in ("json", "json.decoder") if name in sys.modules)))
"""


def _probe(script):
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script, str(src)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout)


class TestImport:
    def test_the_cli_import_loads_only_what_every_command_needs(self):
        loaded, grid, star, public, lazy = _probe(_IMPORT_PROBE)
        unwanted = ["dataclasses", "inspect", "json", "interpbisect.verifier", "interpbisect.svg"]
        assert [name for name in unwanted if name in loaded] == []
        # The grid builder lives beside grid_oracle, its one caller.
        assert grid == []
        assert star == public
        assert lazy == [
            "interpbisect.verifier.check_claim",
            "interpbisect.svg.PlotSpec",
            "interpbisect.svg.render_trace_svg",
            "interpbisect.svg.PlotError",
        ]

    def test_the_trace_reader_loads_no_json(self):
        # Every trace line is read in the writer's grammar, not as JSON.
        assert _probe(_READER_PROBE) == []


class TestProcessLevel:
    def test_module_entry_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "interpbisect", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for sub in ("run", "compare", "verify", "plot"):
            assert sub in proc.stdout

    def test_console_script_round_trip(self, tmp_path):
        command = console_script()
        trace = tmp_path / "t.jsonl"
        proc = subprocess.run(
            [
                *command, "run", "-f", SAMPLE_TEXT,
                "--a", "-1", "--b", "1", "-e", "1/2",
                "--max-steps", "10", "--out", str(trace),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        proc = subprocess.run(
            [*command, "verify", "-t", str(trace), "-f", SAMPLE_TEXT],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["claim_holds"] is True
