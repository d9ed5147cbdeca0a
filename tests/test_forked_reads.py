"""verify --table read by two processes: a forked child checks the lines
after the middle of a large table while the CLI process checks the lines
before it, and the two verdicts merge. The exit code, stdout and stderr
must be those of one process: of the CLI pinned to one CPU, and of
cli.main run in this process with the fork switched off. Every subprocess
has a timeout: a child that outlived the CLI would hold its stdout pipe
open and make communicate time out."""

import os
from unittest import mock

import pytest
from conftest import BLOCKS, can_fork, count_forks, decorated_tables, one_cpu, run_cold, run_main
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudofuzzy import cli

GATE = cli._FORK_BYTES
HEADER = "x,mu,lambda\n"


def rows(n, kind, lo=10.0, hi=20.0):
    """n rows of the triangle (lo, (lo + hi) / 2, hi) of kind as CSV lines
    of one width: x from lo to hi, all values "%.6f"."""
    peak = (lo + hi) / 2
    lines = []
    for i in range(n):
        x = lo + (hi - lo) * i / (n - 1)
        mu = (x - lo) / (peak - lo) if x <= peak else (hi - x) / (hi - peak)
        lam = mu - 1.0 if kind == "dependent" else -mu
        lines.append("%.6f,%.6f,%.6f\n" % (x, mu, lam))
    return lines


def sized(lines, size):
    """HEADER and lines after a comment line that makes the table size bytes."""
    body = HEADER + "".join(lines)
    pad = size - len(body) - 1
    assert pad >= 1, "the rows alone exceed size"
    return "#" * pad + "\n" + body


def seam(text):
    """Indexes in text.splitlines(keepends=True) of the lines on either side of the split."""
    data = text.encode()
    split, start = cli._middle_line(data), 0
    for i, line in enumerate(text.splitlines(keepends=True)):
        start += len(line.encode())
        if start == split:
            return i, i + 1
    raise AssertionError("the split starts no line")


def read_all_ways(argv, stdin=None, cpus=True):
    """(code, stdout, stderr) of the cold CLI, checked against one process both ways."""
    cold = run_cold(argv, input=stdin)
    with mock.patch.object(cli, "_two_cpus", return_value=False):
        assert cold == run_main(argv, stdin if stdin is not None else "")
    if cpus:
        assert cold == run_cold(argv, input=stdin, preexec_fn=one_cpu)
    return cold


def verify(path, kind="dependent"):
    return ["verify", str(path), "--table", "--kind", kind]


def tampered(lines, i):
    """lines with row i's lambda moved by 0.05 into [-1, 0): off either identity.

    A lambda that is not 0 keeps its width.
    """
    x, mu, lam = lines[i].rstrip("\n").split(",")
    lam = float(lam) + (0.05 if float(lam) < -0.5 else -0.05)
    return lines[:i] + ["%s,%s,%.6f\n" % (x, mu, lam)] + lines[i + 1:]


# 101 rows never fork; below the gate by a byte, at it, and 100001 rows
SIZES = {"101-rows": None, "below-gate": GATE - 1, "at-gate": GATE, "100001-rows": None}


# rows of the tables sized to the gate: lines are at most 29 bytes
GATE_ROWS = (GATE - 100) // 29


def table_of(size_name, kind, tamper):
    n = {"101-rows": 101, "100001-rows": 100001}.get(size_name, GATE_ROWS)
    lines = rows(n, kind)
    if tamper:
        lines = tampered(lines, n * 3 // 4)  # in the second half, mu about 0.5
    size = SIZES[size_name]
    return HEADER + "".join(lines) if size is None else sized(lines, size)


@can_fork
@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("tamper", [False, True], ids=["clean", "tampered"])
@pytest.mark.parametrize("kind", ["dependent", "independent"])
@pytest.mark.parametrize("size_name", list(SIZES))
def test_tables_read_as_one_process_reads_them(tmp_path, size_name, kind, tamper, source):
    text = table_of(size_name, kind, tamper)
    if SIZES[size_name] is not None:
        assert len(text.encode()) == SIZES[size_name]
    path = tmp_path / "t.csv"
    path.write_text(text)
    if source == "file":
        code, out, err = read_all_ways(verify(path, kind))
    else:
        code, out, err = read_all_ways(verify("-", kind), text.encode())
    assert (code, err) == (0, "")
    assert (out == "ok\n") is not tamper
    other = "independent" if kind == "dependent" else "dependent"
    assert read_all_ways(verify(path, other), cpus=False)[1].startswith("violation at x=")


def line_defects():
    """{name: defect}, where defect(lines, i) breaks line i of a table of rows() and keeps its width."""
    def field(j, new):
        def defect(lines, i):
            fields = lines[i].rstrip("\n").split(",")
            fields[j] = new(fields[j], lines[i - 1].split(",")[0])
            return lines[:i] + [",".join(fields) + "\n"] + lines[i + 1:]
        return defect

    def fields(lines, i):
        return lines[:i] + [lines[i][::-1].replace(",", ";", 1)[::-1]] + lines[i + 1:]

    return dict([
        ("non-numeric", field(1, lambda mu, _: "x" * len(mu))),
        ("field-count", fields),
        ("mu-out-of-range", field(1, lambda mu, _: "2" + mu[1:])),
        ("lambda-out-of-range", field(2, lambda lam, _: "5" + lam[1:])),
        ("nan-x", field(0, lambda x, _: "nan".rjust(len(x)))),
        ("repeated-x", field(0, lambda x, prev: prev.rjust(len(x)))),
        ("lower-x", field(0, lambda x, prev: ("%.6f" % (float(prev) - 1e-6)).rjust(len(x)))),
    ])


DEFECTS = line_defects()


# the table at the gate: a first comment line, the header, then the rows
AT_GATE = sized(rows(GATE_ROWS, "dependent"), GATE)
LINES = AT_GATE.splitlines(keepends=True)
BEFORE, AFTER = seam(AT_GATE)
# indexes in LINES: the first and the last data line of each half
PLACES = {"first-of-first-half": 2, "last-of-first-half": BEFORE,
          "first-of-second-half": AFTER, "last-of-second-half": len(LINES) - 1}


@can_fork
@pytest.mark.parametrize("place", list(PLACES))
@pytest.mark.parametrize("name", list(DEFECTS))
def test_a_defect_anywhere_is_reported_as_one_process_reports_it(tmp_path, name, place):
    i = PLACES[place]
    if i == 2 and name in ("repeated-x", "lower-x"):
        i = 3  # the first row follows no row: the second one breaks
    text = "".join(DEFECTS[name](LINES, i))
    assert len(text) == GATE and seam(text) == (BEFORE, AFTER)
    path = tmp_path / "t.csv"
    path.write_text(text)
    code, out, err = read_all_ways(verify(path), cpus=False)
    assert (code, out) == (2, "")
    # line i of the file is data line i: the comment line is not counted
    assert err.startswith(f"error: line {i}: " if name in ("non-numeric", "field-count")
                          else "error: invalid curve rows: ")


def with_lines(i, j, new):
    """AT_GATE with its lines i to j - 1 replaced by new."""
    return "".join(LINES[:i] + new + LINES[j:])


FIRST_X = cli._fmt(float(LINES[BEFORE - 100].split(",")[0]))


def ends(text, end):
    return text.replace("\n", end)


def middle_splits_crlf():
    """A CRLF table whose middle falls between a "\\r" and its "\\n"."""
    for pad in range(1, 64):
        text = ends("#" * pad + "\n" + AT_GATE, "\r\n")
        data = text.encode()
        if data[len(data) // 2 - 1:len(data) // 2 + 1] == b"\r\n":
            return text
    raise AssertionError("no pad puts the middle inside a CRLF")


# (name, table, exit code, the start of stdout or stderr)
SEAM_CASES = [
    ("violations-in-both-halves", "".join(tampered(tampered(LINES, BEFORE - 100), AFTER + 100)), 0,
     f"violation at x={FIRST_X}\n"),
    ("violation-then-defect", "".join(DEFECTS["non-numeric"](tampered(LINES, BEFORE - 100), AFTER)),
     2, f"error: line {AFTER}: non-numeric value\n"),
    ("comment-at-seam", with_lines(BEFORE, AFTER + 1, ["#" * 28 + "\n"] * 2), 0, "ok\n"),
    ("blank-at-seam", with_lines(BEFORE, AFTER + 1, ["\n"] * 58), 0, "ok\n"),
    ("cr-at-seam", with_lines(BEFORE - 1, AFTER + 2, [ends(line, "\r") for line in LINES[BEFORE - 1:AFTER + 2]]),
     0, "ok\n"),
    ("crlf-table", ends(AT_GATE, "\r\n"), 0, "ok\n"),
    ("cr-table", ends(AT_GATE, "\r"), 0, "ok\n"),
    ("middle-inside-crlf", middle_splits_crlf(), 0, "ok\n"),
    # the header in the second half: the child reads it as a data line
    ("header-in-second-half", "#" * GATE + "\n" + HEADER + "".join(rows(101, "dependent")), 0, "ok\n"),
    ("header-only-first-half", HEADER + "#" * GATE + "\n" + "".join(rows(101, "dependent")), 0, "ok\n"),
    ("no-data-rows", HEADER + "#" * GATE + "\n" + "# c\n" * 100, 2,
     "error: curve CSV has no data rows\n"),
    ("no-header", "#" * GATE + "\n" + "# c\n" * 100, 2,
     "error: curve CSV must start with header 'x,mu,lambda'\n"),
    ("wrong-header", "x,mu\n" + AT_GATE, 2,
     "error: curve CSV must start with header 'x,mu,lambda'\n"),
]


@can_fork
@pytest.mark.parametrize("table, code, start", [case[1:] for case in SEAM_CASES],
                         ids=[case[0] for case in SEAM_CASES])
def test_the_seam_is_read_as_one_process_reads_it(tmp_path, table, code, start):
    assert len(table.encode()) >= GATE
    path = tmp_path / "t.csv"
    path.write_bytes(table.encode())
    got, out, err = read_all_ways(verify(path), cpus=False)
    assert got == code
    assert (err if code else out).startswith(start)


@settings(deadline=None, max_examples=150)
@given(decorated_tables(), st.sampled_from(BLOCKS))
def test_small_tables_forked_in_process_read_as_one_process(table, block):
    # the gate at 0 forks this process for any table of two halves
    text, _, kind, _ = table
    argv = ["verify", "-", "--table", "--kind", kind.value]
    with mock.patch.object(cli, "_BLOCK_BYTES", block):
        with mock.patch.object(cli, "_two_cpus", return_value=False):
            alone = run_main(argv, text.encode())
        with mock.patch.object(cli, "_FORK_BYTES", 0), mock.patch.object(cli, "_two_cpus",
                                                                         return_value=True):
            assert run_main(argv, text.encode()) == alone


@can_fork
@pytest.mark.parametrize("how, size_name, forks", [
    ("real", "100001-rows", 1),
    ("real", "101-rows", 0),
    ("real", "below-gate", 0),
    ("real", "at-gate", 1),
    ("one-cpu", "100001-rows", 0),
])
def test_only_large_tables_on_two_cpus_fork(tmp_path, how, size_name, forks):
    path = tmp_path / "t.csv"
    path.write_text(table_of(size_name, "dependent", True))
    proc = count_forks(how, verify(path), capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"{forks}\n".encode()


@can_fork
@pytest.mark.parametrize("how", ["fork-fails", "child-dies", "short-answer"])
@pytest.mark.parametrize("table", ["tampered", "defect-in-second-half"])
def test_a_table_is_read_by_one_process_if_the_child_does_not_answer(tmp_path, how, table):
    if table == "tampered":
        text = table_of("100001-rows", "dependent", True)
    else:
        text = "".join(DEFECTS["non-numeric"](LINES, AFTER + 5))
    path = tmp_path / "t.csv"
    path.write_text(text)
    proc = count_forks(how, verify(path), capture_output=True)
    message, end, forks = proc.stderr.decode()[:-1].rpartition("\n")  # the count comes last
    assert (proc.returncode, proc.stdout.decode(), message + end) == run_cold(verify(path))
    assert forks == "1"
