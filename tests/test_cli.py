"""CLI contract tests: golden stdout per subcommand, exit codes, determinism."""

import gc
import json
import math
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from conftest import run_cli

from pseudofuzzy import CaseLabel, DocumentError, classify_case, cli, discretize, validate_pair
from pseudofuzzy.cli import parse_ptfn

try:
    import resource
except ImportError:  # not on Windows
    resource = None

HERE = Path(__file__).parent
DATA = HERE / "data"
GOLDEN = HERE / "golden"
SAMPLES = HERE.parent / "samples"

DEP = str(DATA / "dep_0_1_2.json")
DEP2 = str(DATA / "dep_1_2_3.json")
DIVQ = str(DATA / "dep_1_2_4.json")
IND = str(DATA / "ind_0_1_2.json")
STRADDLE = str(DATA / "straddle.json")
TAMPERED = str(DATA / "tampered_dependent.csv")

# (golden name, argv, stdin)
GOLDEN_CASES = [
    ("eval_peak", ["eval", DEP, "1"], None),
    ("eval_outer_dep", ["eval", DEP, "-1"], None),
    ("eval_outer_ind", ["eval", IND, "-1"], None),
    ("eval_fractional", ["eval", DEP2, "1.75"], None),
    ("eval_stdin", ["eval", "-", "1"], '{"a":0,"b":1,"c":2,"kind":"dependent"}'),
    ("curve_window", ["curve", DEP, "--n", "5", "--xmin", "0", "--xmax", "2"], None),
    ("curve_default_window", ["curve", DEP2, "--n", "5"], None),
    ("classify_a", ["classify", "0.3", "-0.4"], None),
    ("classify_b", ["classify", "0.25", "-0.75"], None),
    ("classify_c", ["classify", "0.9", "-0.8"], None),
    ("cut_mu_half", ["cut", DEP, "mu", "0.5"], None),
    ("cut_lambda_peak", ["cut", DEP, "lambda", "0"], None),
    ("cut_lambda_ind", ["cut", IND, "lambda", "-0.5"], None),
    ("arith_add", ["arith", "add", DEP, DEP2, "--levels", "3"], None),
    ("arith_sub", ["arith", "sub", DEP2, DEP, "--levels", "3"], None),
    ("arith_mul", ["arith", "mul", DEP, DEP, "--levels", "3"], None),
    ("arith_div", ["arith", "div", DEP2, DIVQ, "--levels", "3"], None),
    ("verify_dep", ["verify", DEP], None),
    ("verify_ind", ["verify", IND], None),
    ("verify_tampered", ["verify", TAMPERED, "--table", "--kind", "dependent"], None),
]

# (argv, stdin, expected exit code)
ERROR_CASES = [
    (["eval", "-", "1"], "{not json", 2),
    (["eval", "-", "1"], '{"a":0,"b":1,"c":2}', 2),
    (["eval", "-", "1"], '{"a":0,"b":1,"c":2,"kind":"dependent","extra":1}', 2),
    (["eval", "-", "1"], '{"a":0,"b":1,"c":2,"kind":"both"}', 2),
    (["eval", "-", "1"], '{"a":2,"b":1,"c":0,"kind":"dependent"}', 2),
    (["eval", "-", "1"], '{"a":1,"b":1,"c":1,"kind":"dependent"}', 2),
    (["eval", "-", "1"], '{"a":true,"b":1,"c":2,"kind":"dependent"}', 2),
    (["eval", str(DATA / "missing.json"), "1"], None, 2),
    (["verify", TAMPERED, "--table"], None, 2),
    (["verify", "-", "--table", "--kind", "dependent"], "bad,header\n1,2,3\n", 2),
    (["arith", "add", "-", "-"], '{"a":0,"b":1,"c":2,"kind":"dependent"}', 2),
    (["eval", DEP, "nan"], None, 3),
    (["eval", DEP, "inf"], None, 3),
    (["curve", DEP, "--n", "1"], None, 3),
    (["curve", DEP, "--n", "5", "--xmin", "2", "--xmax", "2"], None, 3),
    (["cut", DEP, "mu", "1.5"], None, 3),
    (["cut", DEP, "lambda", "0.5"], None, 3),
    (["classify", "1.2", "-0.5"], None, 3),
    (["classify", "0.3", "0.3"], None, 3),
    (["classify", "0.3", "-0.4", "--eps", "0"], None, 3),
    (["arith", "add", DEP, DEP2, "--levels", "1"], None, 3),
    (["verify", DEP, "--eps", "0"], None, 3),
    (["arith", "add", DEP, IND], None, 4),
    (["arith", "mul", IND, DEP], None, 4),
    (["arith", "div", DEP2, STRADDLE], None, 5),
    (["arith", "div", DEP2, DEP], None, 5),
    (["eval", "-", "1"], '{"a":0,"b":1,"c":2,"kind":"dependent","a":0.5}', 2),
    (["eval", str(DATA / "not_utf8.json"), "1"], None, 2),
    # verify has no --grid: a number is never sampled, and a table brings its own rows
    (["verify", DEP, "--grid", "101"], None, 2),
    (["verify", TAMPERED, "--table", "--kind", "dependent", "--grid", "1"], None, 2),
    # "-" and anything float() reads is a negative number, not an option: these are read, then rejected
    (["eval", DEP, "-inf"], None, 3),
    (["classify", "0.5", "-nan"], None, 3),
    (["curve", DEP, "--xmin", "-inf"], None, 3),
]

# negative numbers in exponent form are values, not option flags
EXPONENT_CASES = [
    (["classify", "1e-05", "-7.7e-05"], b"A\n"),
    (["cut", DEP, "lambda", "-7.7e-05"], b"0.999923,1.000077\n"),
    (
        ["curve", DEP, "--n", "3", "--xmin", "-1e308", "--xmax", "1"],
        b"x,mu,lambda\n-1e+308,0,-1\n-5e+307,0,-1\n1,1,0\n",
    ),
]


@pytest.mark.parametrize("name,argv,stdin", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_output(name, argv, stdin):
    result = run_cli(argv, stdin)
    assert result.returncode == 0, result.stderr
    expected = (GOLDEN / f"{name}.txt").read_bytes()
    assert result.stdout == expected


@pytest.mark.parametrize("argv,stdin,code", ERROR_CASES)
def test_error_exit_codes(argv, stdin, code):
    result = run_cli(argv, stdin)
    assert result.returncode == code
    assert result.stdout == b""
    assert result.stderr != b""


@pytest.mark.parametrize("argv,stdout", EXPONENT_CASES)
def test_exponent_form_negative_numbers(argv, stdout):
    result = run_cli(argv)
    assert result.returncode == 0, result.stderr
    assert result.stdout == stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_write_failure_exits_2_without_traceback():
    with open("/dev/full", "wb") as full:
        result = subprocess.run(
            [sys.executable, "-m", "pseudofuzzy", "eval", str(SAMPLES / "demo_p.json"), "1"],
            stdout=full,
            stderr=subprocess.PIPE,
        )
    assert result.returncode == 2
    assert result.stderr.startswith(b"error: cannot write output: ")
    assert result.stderr.count(b"\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_stderr_write_failure_keeps_exit_code():
    with open("/dev/full", "wb") as full:
        result = subprocess.run(
            [sys.executable, "-m", "pseudofuzzy", "eval", str(DATA / "missing.json"), "1"],
            stdout=subprocess.PIPE,
            stderr=full,
        )
    assert result.returncode == 2
    assert result.stdout == b""


def test_closed_pipe_exits_2_without_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "pseudofuzzy", "curve", str(SAMPLES / "demo_p.json"),
         "--n", "100001"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"x,mu,lambda\n"
    proc.stdout.close()  # as `| head -1` does
    _, stderr = proc.communicate(timeout=60)
    assert proc.returncode == 2
    assert stderr.startswith(b"error: cannot write output: ")
    assert stderr.count(b"\n") == 1


def test_closed_stdout_exits_2_without_traceback(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", None)  # as Python sets it when descriptor 1 is closed
    assert cli.main(["classify", "0.5", "-0.5"]) == 2
    assert capsys.readouterr().err == "error: cannot write output: stdout is closed\n"


@pytest.mark.parametrize("argv", [
    ["classify", "0.5", "-0.5"],
    ["curve", str(SAMPLES / "demo_p.json"), "--n", "5"],
])
def test_closed_stdout_descriptor_exits_2(argv):
    command = shlex.join([sys.executable, "-m", "pseudofuzzy", *argv]) + " >&-"
    result = subprocess.run(["sh", "-c", command], capture_output=True)
    assert result.returncode == 2
    assert result.stderr == b"error: cannot write output: stdout is closed\n"


@pytest.mark.parametrize("argv", [["eval", "-", "1"], ["verify", "-", "--table", "--kind", "dependent"]],
                         ids=["eval", "verify-table"])
def test_closed_stdin_descriptor_exits_2(argv):
    command = shlex.join([sys.executable, "-m", "pseudofuzzy", *argv]) + " <&-"
    result = subprocess.run(["sh", "-c", command], capture_output=True)
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr == b"error: cannot read -: stdin is closed\n"


def test_closed_stdin_exits_2_without_traceback(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", None)  # as Python sets it when descriptor 0 is closed
    assert cli.main(["eval", "-", "1"]) == 2
    assert capsys.readouterr() == ("", "error: cannot read -: stdin is closed\n")


@pytest.mark.skipif(not hasattr(resource, "RLIMIT_AS") or not os.path.exists("/proc/self/status"),
                    reason="no address-space limit or no /proc on this platform")
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_a_read_that_runs_out_of_memory_exits_2(tmp_path, source):
    # the CLI runs under an address-space limit 16 MiB above the peak of a
    # probe child of the same interpreter that imports it; the input is a
    # 64 MiB sparse file, whose read cannot fit under the limit
    probe = subprocess.run([sys.executable, "-c", "import pseudofuzzy.cli; print(open('/proc/self/status').read())"],
                           capture_output=True, text=True, check=True)
    limit = (int(re.search(r"^VmPeak:\s+(\d+) kB$", probe.stdout, re.M).group(1)) << 10) + (16 << 20)

    def run(argv, stdin=None):
        return subprocess.run([sys.executable, "-m", "pseudofuzzy", *argv], stdin=stdin, capture_output=True,
                              preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))

    small = tmp_path / "small.csv"
    small.write_bytes(b"x,mu,lambda\n0,0,-1\n")
    assert run(["verify", str(small), "--table", "--kind", "dependent"]).stdout == b"ok\n"
    big = tmp_path / "big.csv"
    with open(big, "wb") as handle:
        handle.truncate(64 << 20)
    if source == "file":
        result, path = run(["verify", str(big), "--table", "--kind", "dependent"]), str(big)
    else:
        with open(big, "rb") as handle:
            result, path = run(["verify", "-", "--table", "--kind", "dependent"], handle), "-"
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr == f"error: cannot read {path}: out of memory\n".encode()


def test_a_json_parse_that_runs_out_of_memory_exits_2(monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli.json, "loads", out_of_memory)
    assert cli.main(["eval", DEP, "1"]) == 2
    assert capsys.readouterr() == ("", "error: cannot parse JSON: out of memory\n")


@pytest.mark.parametrize("count", [str(2**53 + 1), str(10**400)], ids=["2**53+1", "10**400"])
@pytest.mark.parametrize("argv, message", [
    (["curve", DEP, "--n"], "need n <= 2**53 sample points"),
    (["arith", "mul", DEP, DEP2, "--levels"], "need levels <= 2**53"),
])
def test_counts_beyond_float_precision_are_bad_counts(argv, message, count):
    result = run_cli([*argv, count])
    assert result.returncode == 3
    assert result.stdout == b""
    assert result.stderr == f"error: {message}, got {count}\n".encode()


# inherited environment, and the C locale, where stdin's text layer
# decodes with surrogateescape
@pytest.mark.parametrize("env", [None, {**os.environ, "LC_ALL": "C"}], ids=["default", "c_locale"])
def test_non_utf8_stdin_is_reported(env):
    doc = b'{"a":0,"b":1,"c":2,"kind":"dep\xffendent"}'
    result = run_cli(["eval", "-", "1"], doc, env=env)
    assert result.returncode == 2
    assert result.stdout == b""
    assert result.stderr.startswith(b"error: input is not UTF-8: ")


@pytest.mark.parametrize(
    "op,message",
    [
        ("div", b"div overflows at alpha=0.0: quotient by divisor cut [1e-320, 2.0] is not finite"),
        ("mul", b"mul overflows at alpha=0.0: product of cuts [1e+200, 3e+200] and "
                b"[1e+200, 3e+200] is not finite"),
    ],
)
def test_overflow_error_names_operation_and_level(tmp_path, op, message):
    # div: a divisor foot of 1e-320; mul: (1e200, 2e200, 3e200) by itself
    tiny = tmp_path / "tiny_foot.json"
    tiny.write_text('{"a":1e-320,"b":1,"c":2,"kind":"dependent"}')
    huge = tmp_path / "huge.json"
    huge.write_text('{"a":1e200,"b":2e200,"c":3e200,"kind":"dependent"}')
    operands = [DEP2, str(tiny)] if op == "div" else [str(huge), str(huge)]
    result = run_cli(["arith", op, *operands])
    assert result.returncode == 3
    assert result.stdout == b""
    assert result.stderr == b"error: " + message + b"\n"


@pytest.mark.parametrize("op,sign", [("add", "+"), ("sub", "-")])
def test_shape_overflow_names_operation(tmp_path, op, sign):
    huge = tmp_path / "huge.json"
    huge.write_text('{"a":1e308,"b":1.5e308,"c":1.7e308,"kind":"dependent"}')
    low = tmp_path / "low.json"
    low.write_text('{"a":-1.7e308,"b":-1.5e308,"c":-1e308,"kind":"dependent"}')
    result = run_cli(["arith", op, str(huge), str(huge if op == "add" else low)])
    assert result.returncode == 3
    assert result.stdout == b""
    q = "(1e+308, 1.5e+308, 1.7e+308)" if op == "add" else "(-1.7e+308, -1.5e+308, -1e+308)"
    assert result.stderr == (
        f"error: {op} overflows on (1e+308, 1.5e+308, 1.7e+308) {sign} {q}: "
        "a must be finite, got inf\n"
    ).encode()


def test_cli_never_imports_numpy():
    script = textwrap.dedent(
        f"""
        import sys
        import pseudofuzzy
        from pseudofuzzy import arith, cli

        p, q = {str(SAMPLES / "demo_p.json")!r}, {str(SAMPLES / "demo_q.json")!r}
        for argv in (
            ["eval", p, "0.25"],
            ["curve", p, "--n", "11"],
            ["classify", "0.3", "-0.4"],
            ["cut", p, "mu", "0.5"],
            ["arith", "add", p, q],
            ["arith", "sub", p, q],
            ["arith", "mul", p, q],
            ["arith", "div", q, q],
            ["verify", p],
            ["verify", {TAMPERED!r}, "--table", "--kind", "dependent"],
        ):
            assert cli.main(argv) == 0, argv
        assert "numpy" not in sys.modules

        pseudofuzzy.extension_oracle(
            pseudofuzzy.PseudoTfn.dependent(0, 1, 2),
            pseudofuzzy.PseudoTfn.dependent(1, 2, 3),
            pseudofuzzy.BinaryOpCode.MUL,
        )
        assert "numpy" in sys.modules
        import numpy
        assert arith.np is numpy
        assert set(arith._ORACLE_OPS) == set(pseudofuzzy.BinaryOpCode)
        print("checked")
        """
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith(b"checked\n")


def test_cli_import_leaves_out_costly_modules():
    # -S leaves out site, whose .pth files may import typing on their own
    script = textwrap.dedent(
        f"""
        import sys
        from pseudofuzzy import cli

        assert cli.main(["classify", "0.3", "-0.4"]) == 0
        assert cli.main(["arith", "mul", {DEP!r}, {DEP2!r}, "--levels", "3"]) == 0
        assert cli.main(["curve", {DEP!r}, "--n", "20000"]) == 0  # written by two processes
        costly = {{"dataclasses", "inspect", "typing", "numpy",
                  "multiprocessing", "concurrent", "subprocess", "threading"}}
        print(sorted(costly & set(sys.modules)))
        """
    )
    result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.endswith(b"\n[]\n")


def test_unknown_subcommand_is_usage_error():
    result = run_cli(["frobnicate"])
    assert result.returncode == 2


def test_reruns_are_byte_identical():
    argv = ["curve", DEP2, "--n", "101", "--xmin", "-1", "--xmax", "5"]
    first = run_cli(argv)
    second = run_cli(argv)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_curve_rows_round_trip():
    result = run_cli(["curve", IND, "--n", "41"])
    lines = result.stdout.decode().splitlines()
    assert lines[0] == "x,mu,lambda"
    for line in lines[1:]:
        x, mu, lam = (float(part) for part in line.split(","))
        pair = validate_pair(mu, lam)
        assert pair.lam == pytest.approx(-pair.mu, abs=1e-9)


def test_formatting_uses_twelve_significant_digits():
    result = run_cli(["eval", DEP2, "1.1"])
    x, mu, lam = result.stdout.decode().strip().split(",")
    assert x == "1.1"
    assert mu == "0.1"  # (1.1 - 1) / 1 quantized to 12 significant digits
    assert lam == "-0.9"


def test_verify_reports_first_grid_violation():
    # curve with a tampered middle row, checked in table mode
    result = run_cli(["verify", "-", "--table", "--kind", "independent"],
                     "x,mu,lambda\n0,0,0\n1,0.5,-0.2\n2,1,-1\n")
    assert result.returncode == 0
    assert result.stdout == b"violation at x=1\n"


# a number near 1e16, where the float grid is 2 apart: its default
# window of 101 points repeats x values
NEAR_1E16 = '{"a":1e16,"b":1.0000000000000002e16,"c":1.0000000000000004e16,"kind":"dependent"}'


@pytest.mark.parametrize("argv,stdin,message", [
    (["curve", DEP, "--xmin", "1", "--xmax", "1.0000000000000004", "--n", "6"], None,
     b"error: duplicate support point x=1.0 at index 1\n"),
    (["curve", "-"], NEAR_1E16,
     b"error: duplicate support point x=9999999999999996.0 at index 1\n"),
], ids=["narrow_window", "near_1e16"])
def test_curve_rejects_repeated_x(argv, stdin, message):
    result = run_cli(argv, stdin)
    assert result.returncode == 3
    assert result.stdout == b""
    assert result.stderr == message


def test_verify_grid_may_repeat_x():
    # verify samples no grid, so a number whose default grid repeats x passes
    result = run_cli(["verify", "-"], NEAR_1E16)
    assert result.returncode == 0
    assert result.stdout == b"ok\n"


@pytest.mark.parametrize("argv, message", [
    (["verify", TAMPERED, "--table"], b"error: --table requires --kind\n"),
    (["verify", DEP, "--kind", "independent"], b"error: --kind requires --table\n"),
], ids=["table_without_kind", "kind_without_table"])
def test_verify_takes_table_and_kind_together(argv, message):
    result = run_cli(argv)
    assert (result.returncode, result.stdout, result.stderr) == (2, b"", message)


# its default window, +-9e307, is finite, but not its width
WIDE = '{"a":-3e307,"b":0,"c":3e307,"kind":"dependent"}'
WIDE_RANGE = b"window width xmax - xmin overflows, got [-8.999999999999999e+307, 8.999999999999999e+307]"


@pytest.mark.parametrize("argv,stdin,message", [
    (["curve", DEP, "--xmin", "-1e308", "--xmax", "1e308"], None,
     b"window width xmax - xmin overflows, got [-1e+308, 1e+308]"),
    (["curve", "-"], WIDE, WIDE_RANGE),
], ids=["curve_window", "curve_default_window"])
def test_overflowing_window_width_is_a_bad_range(argv, stdin, message):
    result = run_cli(argv, stdin)
    assert (result.returncode, result.stdout, result.stderr) == (3, b"", b"error: " + message + b"\n")


def test_verify_answers_for_an_overflowing_window():
    # verify samples no window, so one whose width overflows is no error
    result = run_cli(["verify", "-"], WIDE)
    assert (result.returncode, result.stdout, result.stderr) == (0, b"ok\n", b"")


@pytest.mark.parametrize("argv,stdout", [
    (["eval", "-", "9.5e307"], b"9.5e+307,0.975,-0.025\n"),
    (["cut", "-", "mu", "0.5"], b"0,1e+308\n"),
    (["cut", "-", "mu", "0"], b"-1e+308,1e+308\n"),
    (["curve", "-", "--xmin", "9.5e307", "--xmax", "9.9e307", "--n", "3"],
     b"x,mu,lambda\n9.5e+307,0.975,-0.025\n9.7e+307,0.985,-0.015\n9.9e+307,0.995,-0.005\n"),
], ids=["eval", "cut_half", "cut_zero", "curve"])
def test_overflowing_side_gives_finite_results(argv, stdout):
    # b - a overflows: mu and the cuts are taken from the halved triangle, not inf / inf
    result = run_cli(argv, '{"a":-1e308,"b":1e308,"c":1e308,"kind":"dependent"}')
    assert (result.returncode, result.stdout, result.stderr) == (0, stdout, b"")


def test_window_whose_steps_overflow_samples_finite_rows():
    # i * (xmax - xmin) overflows, though every sample lies in the window
    result = run_cli(["curve", DEP, "--xmin", "-1e306", "--xmax", "1.7e308", "--n", "101"])
    assert (result.returncode, result.stderr) == (0, b"")
    rows = [[float(v) for v in line.split(b",")] for line in result.stdout.splitlines()[1:]]
    xs = [x for x, _, _ in rows]
    assert len(rows) == 101 and all(map(math.isfinite, sum(rows, [])))
    assert xs == sorted(set(xs)) and xs[0] == -1e306 and xs[-1] == 1.7e308


@pytest.mark.parametrize("newline,position", [
    ("\r\n", b"line 4 column 10 (char 34)"),
    ("\r", b"line 1 column 32 (char 31)"),
], ids=["crlf", "cr"])
def test_malformed_json_reports_one_position_from_file_and_stdin(tmp_path, newline, position):
    doc = newline.join(["{", '  "a": 0,', '  "b": 1,', '  "c": 2 x', "}", ""]).encode()
    path = tmp_path / "doc.json"
    path.write_bytes(doc)
    message = b"error: malformed JSON: Expecting ',' delimiter: " + position + b"\n"
    for result in (run_cli(["eval", str(path), "1"]), run_cli(["eval", "-", "1"], doc)):
        assert (result.returncode, result.stdout, result.stderr) == (2, b"", message)


class TestColdFeverSample:
    """The shipped body-temperature walkthrough: mu is the hotness of the
    fever, lam the coldness felt, rising and falling together (dependent
    kind, case B at every temperature)."""

    def test_sample_parses(self):
        doc = (SAMPLES / "cold_fever.json").read_text()
        p = parse_ptfn(doc)
        assert (p.a, p.b, p.c) == (99.0, 103.0, 107.0)
        assert p.kind.value == "dependent"

    def test_documented_pairs_classify_case_b(self):
        p = parse_ptfn((SAMPLES / "cold_fever.json").read_text())
        for element in discretize(p, 81, 95.0, 111.0):
            assert classify_case(element.pair) is CaseLabel.B

    def test_halfway_fever(self):
        result = run_cli(["eval", str(SAMPLES / "cold_fever.json"), "101"])
        assert result.stdout == b"101,0.5,-0.5\n"

    def test_cli_verify_ok(self):
        result = run_cli(["verify", str(SAMPLES / "cold_fever.json")])
        assert result.stdout == b"ok\n"


def test_parse_ptfn_accepts_bytes():
    p = parse_ptfn(json.dumps({"a": 0, "b": 1, "c": 2, "kind": "independent"}).encode())
    assert p.kind.value == "independent"
    # decoded strictly here too, though the CLI checks its input's bytes before parsing
    with pytest.raises(DocumentError) as info:
        parse_ptfn(b'{"a": 0, "b": 1, "c": 2, "kind": "dep\xffendent"}')
    assert str(info.value) == ("input is not UTF-8: 'utf-8' codec can't decode byte 0xff "
                               "in position 37: invalid start byte")


def test_main_leaves_the_collector_as_it_found_it(capsys):
    # only entry(), which ends the process, freezes its objects: main is called in process
    frozen = gc.get_freeze_count()
    assert cli.main(["classify", "0.25", "-0.75"]) == 0
    assert capsys.readouterr().out == "B\n"
    assert gc.get_freeze_count() == frozen


def test_entry_freezes_the_objects_of_its_process():
    script = textwrap.dedent("""\
        import gc, sys
        from pseudofuzzy import cli
        sys.argv = ["pseudofuzzy", "classify", "0.25", "-0.75"]
        try:
            cli.entry()
        except SystemExit as exc:
            print(exc.code, gc.get_freeze_count() > 0, file=sys.stderr)
    """)
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (result.stdout, result.stderr) == ("B\n", "0 True\n")
