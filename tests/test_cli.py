"""CLI: golden outputs, exit codes, determinism, JSON schemas."""

import json
import subprocess
import sys

import jsonschema
import pytest

from qhcube import (
    BLOWUP_CLASS_JSON_SCHEMA,
    EQUIVARIANT_CLASS_JSON_SCHEMA,
    QUANTUM_CLASS_JSON_SCHEMA,
    EqualWeightsError,
    InconsistentError,
    NonPositiveError,
    NotInSpanError,
    UnderdeterminedError,
    cli,
)
from qhcube.cli import UsageError, main
from qhcube.expressions import (
    ExpressionError,
    ExpressionSyntaxError,
    IndexOutOfRangeError,
    UnknownGeneratorError,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- golden outputs ----------------------------------------------------------------


def test_golden_seidel(capsys):
    code, out, err = run_cli(capsys, "seidel", "--n", "2", "x1")
    assert (code, out, err) == (0, "q1*x2\n", "")


def test_golden_certify(capsys):
    code, out, err = run_cli(capsys, "certify", "--n", "5")
    assert (code, out, err) == (0, "EMPTY\n", "")


def test_golden_blowup_seidel(capsys):
    code, out, err = run_cli(capsys, "blowup", "seidel", "f")
    assert (code, out, err) == (0, "bf - b*eE\n", "")


def test_golden_outputs_via_subprocess():
    cases = [
        (["seidel", "--n", "2", "x1"], b"q1*x2\n", 0),
        (["certify", "--n", "5"], b"EMPTY\n", 0),
        (["blowup", "seidel", "f"], b"bf - b*eE\n", 0),
    ]
    for argv, expected, code in cases:
        proc = subprocess.run(
            [sys.executable, "-m", "qhcube", *argv], capture_output=True
        )
        assert proc.returncode == code
        assert proc.stdout == expected
        assert proc.stderr == b""


def test_determinism():
    argv = [sys.executable, "-m", "qhcube", "--format", "json", "chern", "--n", "3"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


# -- exit codes -----------------------------------------------------------------------


def test_parse_error_exit_code(capsys):
    code, out, err = run_cli(capsys, "seidel", "--n", "2", "x3")
    assert code == 2
    assert out == ""
    assert err.startswith("error: IndexOutOfRange:")
    assert err.count("\n") == 1


def test_syntax_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "mul", "--n", "2", "x1 +", "x2")
    assert code == 2
    assert err.startswith("error: SyntaxError:")


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "gw", "--n", "2", "--i", "{1}", "--j", "{1}",
                           "--k", "{1}", "--d", "1")
    assert code == 2
    assert err.startswith("error: Usage:")


def test_bad_subcommand_exit_code(capsys):
    assert main(["frobnicate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Usage: ") and err.count("\n") == 1


def test_help_still_prints_usage(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: qhcube")


@pytest.mark.parametrize(
    "error, line, status",
    [
        (ExpressionError("bad input", 2), "ExpressionError: bad input (offset 2)", 2),
        (ExpressionSyntaxError("bad token", 3), "SyntaxError: bad token (offset 3)", 2),
        (UnknownGeneratorError("unknown z", 1), "UnknownGenerator: unknown z (offset 1)", 2),
        (IndexOutOfRangeError("index 9", 4), "IndexOutOfRange: index 9 (offset 4)", 2),
        (UsageError("bad flag"), "Usage: bad flag", 2),
        (NotInSpanError("not integral"), "NotInSpan: not integral", 1),
        (UnderdeterminedError("free columns: [0]"), "Underdetermined: free columns: [0]", 1),
        (InconsistentError("no solution"), "Inconsistent: no solution", 1),
        (EqualWeightsError("equal sums"), "EqualWeights: equal sums", 1),
        (NonPositiveError("wrong sign"), "NonPositive: wrong sign", 1),
        (ValueError("plain value error"), "Usage: plain value error", 2),
    ],
)
def test_errors_print_one_line_and_status(capsys, monkeypatch, error, line, status):
    def fail(n):
        raise error

    monkeypatch.setattr(cli, "higher_order_infeasibility", fail)
    assert run_cli(capsys, "certify", "--n", "2") == (status, "", f"error: {line}\n")


def test_solver_bound_exit_code(capsys):
    code, _, err = run_cli(capsys, "solve", "--n", "9")
    assert code == 2


# -- subcommand outputs ------------------------------------------------------------------


def test_mul_text(capsys):
    code, out, _ = run_cli(capsys, "mul", "--n", "2", "x1*x1 + 3/2*q2", "1")
    assert code == 0
    assert out == "q1 + 3/2*q2\n"


def test_cup_text(capsys):
    code, out, _ = run_cli(capsys, "cup", "--n", "2", "x1", "x1")
    assert (code, out) == (0, "0\n")


def test_mul_json_schema(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "mul", "--n", "2", "x1", "x2")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, QUANTUM_CLASS_JSON_SCHEMA)
    assert payload == [{"monomial": {"x": [1, 2], "q": [0, 0]}, "coeff": "1"}]


def test_gw_output(capsys):
    code, out, _ = run_cli(
        capsys, "gw", "--n", "2", "--i", "{1}", "--j", "{1}",
        "--k", "{1,2}", "--d", "1,0",
    )
    assert (code, out) == (0, "1\n")
    code, out, _ = run_cli(
        capsys, "--format", "json", "gw", "--n", "2", "--i", "{1}", "--j", "{2}",
        "--k", "{}", "--d", "0,0",
    )
    assert code == 0
    assert json.loads(out) == {"value": "1"}


def test_decompose_output(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--n", "2", "b{}")
    assert code == 0
    assert out == "{}: y^2\n{1}: y\n{2}: y\n{1,2}: 1\n"


def test_decompose_json_schema(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "decompose", "--n", "2", "b{}")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, EQUIVARIANT_CLASS_JSON_SCHEMA)
    assert list(payload) == ["{}", "{1}", "{2}", "{1,2}"]


def test_restrict_output(capsys):
    code, out, _ = run_cli(
        capsys, "restrict", "--n", "3", "b{}", "--point", "{}"
    )
    assert (code, out) == (0, "y^3\n")


def test_restrict_a_outside_support(capsys):
    code, out, _ = run_cli(
        capsys, "restrict", "--n", "2", "a{1}", "--point", "{2}"
    )
    assert (code, out) == (0, "0\n")


def test_chern_json_schema(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "chern", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == ["c1", "c2"]
    for table in payload.values():
        jsonschema.validate(table, EQUIVARIANT_CLASS_JSON_SCHEMA)


def test_solve_output(capsys):
    code, out, _ = run_cli(capsys, "solve", "--n", "1")
    assert code == 0
    assert out == "x{}*x1 = x1\nx{1}*x1 = q1\n"


def test_morse_points(capsys):
    code, out, _ = run_cli(capsys, "morse", "--n", "2", "points")
    assert code == 0
    assert out.splitlines() == [
        "{}: index=0 weight=2",
        "{1}: index=2 weight=0",
        "{2}: index=2 weight=0",
        "{1,2}: index=4 weight=-2",
    ]


def test_morse_edges_with_areas(capsys):
    code, out, _ = run_cli(capsys, "morse", "--n", "2", "--areas", "1,3/2", "edges")
    assert code == 0
    assert out.splitlines() == [
        "{} -> {1}: A1 area=1",
        "{} -> {2}: A2 area=3/2",
        "{1} -> {1,2}: A2 area=3/2",
        "{2} -> {1,2}: A1 area=1",
    ]


def test_morse_moment(capsys):
    code, out, _ = run_cli(capsys, "morse", "--n", "2", "moment")
    assert code == 0
    assert out.splitlines() == ["{}: -1", "{1}: 0", "{2}: 0", "{1,2}: 1"]


def test_blowup_mul_output(capsys):
    code, out, _ = run_cli(capsys, "blowup", "mul", "b", "b")
    assert (code, out) == (0, "-bf + b*eE + eF\n")


def test_blowup_json_schema(capsys):
    code, out, _ = run_cli(capsys, "--format", "json", "blowup", "mul", "f", "f")
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, BLOWUP_CLASS_JSON_SCHEMA)
    assert payload == [{"monomial": {"basis": "b", "novikov": [1, 0]}, "coeff": "1"}]


def test_blowup_signs_output(capsys):
    code, out, _ = run_cli(capsys, "blowup", "signs")
    assert code == 0
    lines = out.splitlines()
    assert "GW_E(f,f,f) = 1" in lines
    assert "GW_E(b,b,b) = -1" in lines
    assert len(lines) == 8
