"""Tests of the benchmark itself: python3 -m pytest bench

The checks must pass on the package's real output and must fail on a
deliberately wrong expectation (the negative controls), or fail_ratio
would mean nothing.
"""

import contextlib
import io
import sys
import time

import pytest

import expect
import gen
import run
from spans import Recorder

sys.path.insert(0, str(run.SRC))
import inproc  # noqa: E402  (needs the package on sys.path)
from pseudofuzzy import cli  # noqa: E402


def cli_output(op, workdir):
    """Exit code and stdout of one operation, run in-process."""
    stdin = (workdir / op["stdin"]).read_text() if op["stdin"] else ""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(workdir), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        saved, sys.stdin = sys.stdin, io.StringIO(stdin)
        try:
            code = cli.main(op["argv"])
        except SystemExit as exc:
            code = exc.code
        finally:
            sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def wrong(check):
    """The same check with one expectation deliberately off."""
    what, *spec = check
    if what == "error":
        return (what, spec[0] + 1)
    if what == "lines":
        return (what, ["wrong"])
    if what == "cut":
        lo, hi = spec[0]
        return (what, (lo - 1.0, hi))
    if what == "verify_table":
        return (what, 12345.0 if spec[0] is None else None)
    if what == "eval":
        tri, kind, x = spec
        return (what, tri, gen.KINDS[1 - gen.KINDS.index(kind)], x)
    if what == "curve":
        tri, kind, n, xmin, xmax = spec
        return (what, tri, gen.KINDS[1 - gen.KINDS.index(kind)], n, xmin, xmax)
    if what == "table":
        op, p, q, kind, count = spec
        return (what, {"add": "sub", "sub": "add", "mul": "div", "div": "mul"}[op], p, q, kind, count)
    raise AssertionError(what)


@pytest.fixture
def oneshot_ops(tmp_path):
    inputs = gen.Inputs(tmp_path, seed=7)
    return [op for r in range(4) for op in inputs.oneshot_round(r)], tmp_path


def test_checks_accept_real_output_and_reject_wrong_expectations(oneshot_ops):
    ops, workdir = oneshot_ops
    assert {op["name"] for op in ops} >= {"eval", "curve", "verify_tampered", "arith_div", "invalid"}
    for op in ops:
        code, out, err = cli_output(op, workdir)
        assert expect.check_op(op["check"], code, out, err) is None, op
        assert expect.check_op(wrong(op["check"]), code, out, err) is not None, op


def test_lib_check_accepts_real_results_and_rejects_wrong_operands():
    for case in gen.Inputs(None, seed=3).lib_round(0):
        res = inproc.lib_case(case)
        assert inproc.check_lib(case, res) is None
        shifted = dict(case, p=[v + 0.5 for v in case["p"]])
        assert inproc.check_lib(shifted, res) is not None


def test_lambda_of_result_check_catches_a_wrong_grade():
    case = gen.Inputs(None, seed=5).lib_round(0)[0]
    res = inproc.lib_case(case)
    pair = res["pairs"][0]
    res["pairs"][0] = type(pair)(min(pair.mu + 0.2, 1.0) if pair.mu < 0.5 else pair.mu - 0.2,
                                 pair.lam)
    assert inproc.check_lib(case, res) is not None


def test_rounds_are_seeded(tmp_path):
    first = gen.Inputs(tmp_path / "a", seed=1)
    second = gen.Inputs(tmp_path / "b", seed=1)
    for inputs in (first, second):
        inputs.workdir.mkdir()
    assert [op["check"] for op in first.oneshot_round(3)] == [
        op["check"] for op in second.oneshot_round(3)]
    assert first.lib_round(2) == second.lib_round(2)
    assert first.lib_round(2) != gen.Inputs(None, seed=2).lib_round(2)


def test_float_args_have_no_exponent_and_keep_their_value(tmp_path):
    for value in (-7.714110613499248e-05, 1e-300, -0.5, 123456789.125, -1.5e22):
        text = gen.arg(value)
        assert "e" not in text and float(text) == value
    code, _, _ = cli_output({"argv": ["classify", "1e-05", gen.arg(-7.7e-05)], "stdin": None},
                            tmp_path)
    assert code == 0


def test_tail_is_p90_with_ten_samples_beyond_it():
    assert run.tail(list(range(1000))) == (899, 90.0, 1000)
    assert run.tail(list(range(100))) == (89, 90.0, 100)
    assert run.tail(list(range(50))) == (39, 80.0, 50)  # ten beyond: p80
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def traced_op(rec, op):
    """Trace one op of two nested leaves; returns its wall time in s."""
    def leaf():
        return sum(range(100_000))

    def middle():
        return rec.call("ptfn.leaf", leaf) + rec.call("ptfn.leaf", leaf)

    rec.op = op
    start = time.perf_counter()
    rec.call("cli.root", middle)
    return time.perf_counter() - start


def op_sums(rec, ops):
    sums = [0] * ops
    for (_, op, _, _, _), own in zip(rec.spans, rec.self_times()):
        sums[op] += own
    return sums


def test_self_times_add_up_to_the_wall_time():
    rec = Recorder()
    walls = [traced_op(rec, 0), traced_op(rec, 1)]
    assert all(t >= 0 for t in rec.self_times())
    assert inproc.self_time_gap(op_sums(rec, 2), walls) <= run.TRACE_GAP_LIMIT


def test_self_time_gap_catches_a_span_under_the_wrong_op():
    rec = Recorder()
    walls = [traced_op(rec, 0), traced_op(rec, 1)]
    name, _, parent, start, end = rec.spans[1]  # a leaf of op 0, filed under op 1
    rec.spans[1] = (name, 1, parent, start, end)
    assert inproc.self_time_gap(op_sums(rec, 2), walls) > run.TRACE_GAP_LIMIT


def test_oracle_counts_come_from_the_oracle():
    p = inproc.pf.PseudoTfn(inproc.pf.TriangleShape(-1.0, 0.0, 1.0), inproc.pf.Kind.DEPENDENT)
    q = inproc.pf.PseudoTfn(inproc.pf.TriangleShape(0.5, 1.0, 1.5), inproc.pf.Kind.DEPENDENT)
    counts = inproc.OracleCounts()
    counts.install()
    try:
        table = inproc.pf.extension_oracle(p, q, inproc.OPCODES["mul"], 64, 11)
    finally:
        counts.uninstall()
    assert counts.pairs == 65 * 65  # the peaks fall on the grid
    assert counts.visits == 11 * counts.pairs
    assert table == inproc.pf.extension_oracle(p, q, inproc.OPCODES["mul"], 64, 11)
    assert counts.pairs == 65 * 65  # uninstalled: the second call was not counted


def test_missing_source_is_an_error_without_a_result(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "cli_oneshot", "--seed", "1", "--seconds", "1"]) != 0
    assert "correct" not in capsys.readouterr().out
