"""Streamed CLI output: rows match the library at chunk edges, memory stays
flat in the row count, and verify --table checks a table a block of lines
at a time as it would line by line. The library's own tables hold each
value once."""

import contextlib
import io
import math
import os
import tracemalloc
from unittest import mock

import pytest
from conftest import BLOCKS, curve_tables, decorated_tables, run_main
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudofuzzy import (
    DEFAULT_EPS,
    DocumentError,
    Kind,
    PseudoFuzzyError,
    PseudoTfn,
    add,
    cut_table,
    discretize,
    div,
    kind_violation,
    mul,
    set_kind_violation,
    sub,
    validate_set,
)
from pseudofuzzy import cli, ptfn

CHUNK = cli._CHUNK_ROWS
SIZES = [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 7]

DEP = PseudoTfn.dependent(-1.5, 0.25, 3.0)
IND = PseudoTfn.independent(-1.5, 0.25, 3.0)
STEP = PseudoTfn.dependent(2.0, 2.0, 5.0)  # a == b
DIVISOR = PseudoTfn.dependent(0.5, 1.0, 2.5)


class Sink(io.TextIOBase):
    """Discards what is written, as a write-only text stream."""

    def writable(self):
        return True

    def write(self, text):
        return len(text)


def fmt(value):
    return f"{value + 0.0:.12g}"


def doc(tmp_path, p, name):
    path = tmp_path / f"{name}.json"
    path.write_text(f'{{"a": {p.a!r}, "b": {p.b!r}, "c": {p.c!r}, "kind": "{p.kind.value}"}}')
    return str(path)


def curve_reference(dset):
    rows = ["x,mu,lambda"] + [f"{fmt(e.x)},{fmt(e.pair.mu)},{fmt(e.pair.lam)}" for e in dset]
    return "\n".join(rows) + "\n"


def table_reference(table):
    rows = [f"# kind={table.kind.value}", "alpha,lo,hi"]
    rows += [f"{fmt(alpha)},{fmt(iv.lo)},{fmt(iv.hi)}" for alpha, iv in table.rows]
    return "\n".join(rows) + "\n"


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize(
    "p,window",
    [(DEP, None), (IND, None), (DEP, (-4.0, 7.5)), (IND, (-4.0, 7.5)), (STEP, None)],
    ids=["dep-default", "ind-default", "dep-window", "ind-window", "a_eq_b"],
)
def test_curve_matches_discretize(tmp_path, p, window, n):
    argv = ["curve", doc(tmp_path, p, "p"), "--n", str(n)]
    xmin, xmax = cli._default_window(p)
    if window is not None:
        xmin, xmax = window
        argv += ["--xmin", repr(xmin), "--xmax", repr(xmax)]
    code, out, _ = run_main(argv)
    assert code == 0
    assert out == curve_reference(discretize(p, n, xmin, xmax))


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize(
    "op,reference",
    [
        ("add", lambda p, q, n: cut_table(add(p, q), n)),
        ("sub", lambda p, q, n: cut_table(sub(p, q), n)),
        ("mul", mul),
        ("div", div),
    ],
    ids=["add", "sub", "mul", "div"],
)
def test_arith_matches_library_tables(tmp_path, op, reference, n):
    q = DIVISOR if op == "div" else STEP
    argv = ["arith", op, doc(tmp_path, DEP, "p"), doc(tmp_path, q, "q"), "--levels", str(n)]
    code, out, _ = run_main(argv)
    assert code == 0
    assert out == table_reference(reference(DEP, q, n))


def test_error_after_first_chunk_keeps_written_rows(tmp_path):
    # floats past 2**53 are 2 apart, so a step of about 1 repeats x at row 5000, in the second chunk
    argv = ["curve", doc(tmp_path, DEP, "p"), "--n", "6000", "--xmin", "9007199254735992",
            "--xmax", "9007199254741991"]
    code, out, err = run_main(argv)
    assert code == 3
    assert err == "error: duplicate support point x=9007199254740992.0 at index 5000\n"
    lines = out.splitlines()
    assert lines[0] == "x,mu,lambda"
    assert len(lines) == 1 + CHUNK


def traced_peak(argv):
    """Peak traced allocation (bytes) of cli.main(argv), stdout discarded."""
    tracemalloc.start()
    try:
        code, _, _ = run_main(argv, stdout=Sink())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    return peak


def traced_read_peak(argv, forked=False):
    """traced_peak of a verify --table read by one process, or by two.

    A forked read traces only this process, which reads half the table.
    """
    with mock.patch.object(cli, "_two_cpus", return_value=forked), \
            mock.patch.object(os, "fork", wraps=os.fork) as fork:
        peak = traced_peak(argv)
    assert fork.call_count == forked
    return peak


can_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork on this platform")


@pytest.mark.parametrize("argv", [
    ["curve", "{p}", "--n", "50001"],
    ["arith", "mul", "{p}", "{q}", "--levels", "50001"],
], ids=["curve", "mul"])
def test_bulk_output_memory_is_flat(tmp_path, argv):
    files = {"p": doc(tmp_path, DEP, "p"), "q": doc(tmp_path, DIVISOR, "q")}
    argv = [arg.format(**files) for arg in argv]
    assert traced_peak(argv) < 2 * 2**20


def test_verify_table_memory_is_bounded_by_the_file(tmp_path):
    table = tmp_path / "curve.csv"
    with open(table, "w") as handle:
        run_main(["curve", doc(tmp_path, DEP, "p"), "--n", "50001"], stdout=handle)
    size = table.stat().st_size
    assert traced_read_peak(["verify", str(table), "--table", "--kind", "dependent"]) < 6 * size


def test_verify_table_holds_the_file_once(tmp_path):
    # the bytes of the file, and one block of its lines at a time
    table = tmp_path / "curve.csv"
    with open(table, "w") as handle:
        run_main(["curve", doc(tmp_path, DEP, "p"), "--n", "50001"], stdout=handle)
    size = table.stat().st_size
    assert size >= cli._FORK_BYTES  # so that the forked variant below forks
    assert traced_read_peak(["verify", str(table), "--table", "--kind", "dependent"]) <= 2 * size


@can_fork
def test_forked_verify_table_holds_the_file_once(tmp_path):
    table = tmp_path / "curve.csv"
    with open(table, "w") as handle:
        run_main(["curve", doc(tmp_path, DEP, "p"), "--n", "50001"], stdout=handle)
    size = table.stat().st_size
    assert traced_read_peak(["verify", str(table), "--table", "--kind", "dependent"], True) <= 2 * size


# bytes a row may hold: an Interval or a PseudoFuzzyElement and its
# MembershipPair, with their floats and the row's tuple, take about 186 and
# 160; a second copy of each object's fields, a tuple more each, about 249 and 288
@pytest.mark.parametrize("build, rows, most", [
    (lambda: mul(PseudoTfn.dependent(0, 1, 2), PseudoTfn.dependent(1, 2, 3), 50001), 50001, 215),
    (lambda: discretize(PseudoTfn.dependent(0, 1, 2), 100001, -2, 4), 100001, 220),
], ids=["mul", "discretize"])
def test_library_tables_hold_each_field_once(build, rows, most):
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        table = build()  # held while measured
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held / rows <= most


LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]


@pytest.mark.parametrize("end", ["\r", "\r\n", "\x0c", "\x1e"], ids=repr)
def test_verify_table_holds_the_file_once_whatever_its_line_breaks(tmp_path, end):
    # a block ends at any line break, not only at "\n"; ASCII ones only,
    # as other input is decoded whole once to check it
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["curve", doc(tmp_path, DEP, "p"), "--n", "50001"])
    table = tmp_path / "curve.csv"
    table.write_bytes(out.getvalue().replace("\n", end).encode())
    size = table.stat().st_size
    assert traced_read_peak(["verify", str(table), "--table", "--kind", "dependent"]) <= 2 * size


@can_fork
@pytest.mark.parametrize("end", ["\r", "\r\n", "\x0c", "\x1e"], ids=repr)
def test_forked_verify_table_holds_the_file_once_whatever_its_line_breaks(tmp_path, end):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli.main(["curve", doc(tmp_path, DEP, "p"), "--n", "50001"])
    table = tmp_path / "curve.csv"
    table.write_bytes(out.getvalue().replace("\n", end).encode())
    size = table.stat().st_size
    assert traced_read_peak(["verify", str(table), "--table", "--kind", "dependent"], True) <= 2 * size


@settings(deadline=None)
@given(st.lists(st.tuples(st.text(alphabet="0,1.é-#x", max_size=6), st.sampled_from(LINE_BREAKS))),
       st.integers(min_value=1, max_value=8))
def test_blocks_split_into_the_lines_of_the_whole_text(pieces, block):
    # read whole, or in two halves split where a forked read splits them
    text = "".join(line + end for line, end in pieces)
    data = text.encode()
    split = cli._middle_line(data)
    with mock.patch.object(cli, "_BLOCK_BYTES", block):
        whole = [b.decode() for b in cli._blocks(data, 0, len(data))]
        halves = [b.decode() for b in (*cli._blocks(data, 0, split),
                                       *cli._blocks(data, split, len(data)))]
    for blocks in (whole, halves):
        assert "".join(blocks) == text
        assert [line for b in blocks for line in b.splitlines()] == text.splitlines()


@pytest.mark.parametrize("argv,out", [
    (["eval", "{p}", "-0.0"], "0,0,-1\n"),  # x and mu are -0.0
    (["curve", "{p}", "--xmin", "-1", "--xmax", "-0.0", "--n", "3"],
     "x,mu,lambda\n-1,0,-1\n-0.5,0,-1\n0,0,-1\n"),  # the last row's x and mu
    (["arith", "mul", "{p}", "{q}", "--levels", "2"],
     "# kind=dependent\nalpha,lo,hi\n0,-6,0\n1,-2,-2\n"),  # level 0's hi
], ids=["eval", "curve", "mul"])
def test_negative_zero_is_written_as_zero(tmp_path, argv, out):
    files = {"p": doc(tmp_path, PseudoTfn.dependent(0.0, 1.0, 2.0), "p"),
             "q": doc(tmp_path, PseudoTfn.dependent(-3.0, -2.0, -1.0), "q")}
    assert run_main([arg.format(**files) for arg in argv]) == (0, out, "")


# where %.12g changes notation, or rounds up into the next power of ten
EDGES = [edge * sign for sign in (1.0, -1.0) for base in (1e-5, 1e-4, 1e12, 1e16, 1.0)
         for edge in (math.nextafter(base, 0.0), base, math.nextafter(base, math.inf))]
EDGES += [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
          999999999999.5, 9.999999999995e-5, 0.1 + 0.2]
values = st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False))


@settings(deadline=None, max_examples=60)
@given(st.lists(st.tuples(values, values, values), min_size=1, max_size=20),
       st.sampled_from([1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 1]),
       st.sampled_from(["", "head\n"]))
def test_write_rows_formats_each_value_as_fmt(rows, count, head):
    rows = (rows * (count // len(rows) + 1))[:count]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli._write_rows(head, lambda start, stop: tuple(zip(*rows[start:stop])), count)
    text = out.getvalue()
    assert text.startswith(head)
    lines = text[len(head):].split("\n")
    want = [",".join(map(cli._fmt, row)) for row in rows] + [""]
    assert len(lines) == len(want)
    # the differing lines only: a diff of the whole text is slow to shrink on
    assert [(got, exp) for got, exp in zip(lines, want) if got != exp] == []


# (table, exit code, stdout on success or stderr on failure) of
# verify --table --kind dependent
TABLE_CASES = [
    ("x,mu\n0,0,-1\n", 2, "error: curve CSV must start with header 'x,mu,lambda'\n"),
    ("", 2, "error: curve CSV must start with header 'x,mu,lambda'\n"),
    ("x,mu,lambda\n0,0,-1\n1,1\n", 2, "error: line 3: expected 3 comma-separated values\n"),
    ("x,mu,lambda\n0,zero,-1\n", 2, "error: line 2: non-numeric value\n"),
    ("x,mu,lambda\n", 2, "error: curve CSV has no data rows\n"),
    ("# only\n\nx,mu,lambda\n# a comment\n", 2, "error: curve CSV has no data rows\n"),
    ("x,mu,lambda\n0,0,-1\n1,1.5,0\n", 2,
     "error: invalid curve rows: element 1: mu must lie in [0, 1], got 1.5\n"),
    ("x,mu,lambda\n0,0,0.5\n", 2,
     "error: invalid curve rows: element 0: lam must lie in [-1, 0], got 0.5\n"),
    ("x,mu,lambda\n0,nan,-1\n", 2,
     "error: invalid curve rows: element 0: mu must be finite, got nan\n"),
    ("x,mu,lambda\n0,0,-1\ninf,0,-1\n", 2,
     "error: invalid curve rows: x must be finite, got inf\n"),
    ("x,mu,lambda\n0,0,-1\n1,1,0\n0.5,0.5,-0.5\n", 2,
     "error: invalid curve rows: support not increasing at index 2: 0.5 < 1.0\n"),
    ("x,mu,lambda\n0,0,-1\n1,1,0\n1,1,0\n", 2,
     "error: invalid curve rows: duplicate support point x=1.0 at index 2\n"),
    # line numbers count the kept lines only
    ("# c\nx,mu,lambda\n\n0,0,-1\n# c\n\n1,x,0\n", 2, "error: line 3: non-numeric value\n"),
    ("x,mu,lambda\n# c\n0,0,-1\n\n1,1,0\n# c\n", 0, "ok\n"),
    ("x,mu,lambda\r\n0,0,-1\r\n1,1,0\r\n", 0, "ok\n"),
    ("x,mu,lambda\n0,0,-1\n1,1,-0.5\n2,0,-1\n", 0, "violation at x=1\n"),
    # a defect after a violation still fails the table
    ("x,mu,lambda\n0,0,-1\n1,1,-0.5\n2,0,-1\n3,x,-1\n", 2, "error: line 5: non-numeric value\n"),
    ("x,mu,lambda\n0,0,-1\n1,1,-0.5\n2,0,-1\n1.5,0,-1\n", 2,
     "error: invalid curve rows: support not increasing at index 3: 1.5 < 2.0\n"),
    # rows that the bytes pass refuses or reads: a block of them is read as its lines are
    ("x,mu,lambda\n0,0,-1\n1\x0c,0,-1\n", 2,  # splitlines() breaks a line at \x0c
     "error: line 3: expected 3 comma-separated values\n"),
    ("x,mu,lambda\n0,0,-1\n1\r,0,-1\n", 2,  # and at a lone \r
     "error: line 3: expected 3 comma-separated values\n"),
    ("x,mu,lambda\n0,0,-1\n1,,-1\n", 2, "error: line 3: non-numeric value\n"),
    ("x,mu,lambda\n0,0,-1\n1e999,0,-1\n", 2,
     "error: invalid curve rows: x must be finite, got inf\n"),
    ("x,mu,lambda\n0,0,-1\n1, 0.5,-0.5\n2,0,-0.5\n", 0, "violation at x=2\n"),
    ("x,mu,lambda\n0,0,-1\n1_0,0,-1\n5,0,-1\n", 2,
     "error: invalid curve rows: support not increasing at index 2: 5.0 < 10.0\n"),
    ("x,mu,lambda\n0,+.5,-0.5\n1,-0,-1\n2,0,-0.5\n", 0, "violation at x=2\n"),
]


@pytest.mark.parametrize("table,code,message", TABLE_CASES)
def test_verify_table_reports(table, code, message):
    got, out, err = run_main(["verify", "-", "--table", "--kind", "dependent"], table)
    assert got == code
    assert (out, err) == (("", message) if code else (message, ""))


@pytest.mark.parametrize("block", BLOCKS[1:])
@pytest.mark.parametrize("table,code,message", TABLE_CASES)
def test_verify_table_reports_in_blocks_of_any_size(table, code, message, block):
    # in small blocks the rows after the header's block are read by the bytes pass
    with mock.patch.object(cli, "_BLOCK_BYTES", block):
        got, out, err = run_main(["verify", "-", "--table", "--kind", "dependent"], table.encode())
    assert got == code
    assert (out, err) == (("", message) if code else (message, ""))


# (block, prev, the bytes pass's columns or None)
PLAIN_CASES = [
    (b"0,0,-1\n1,1,0\n", -math.inf, ([0.0, 1.0], [0.0, 1.0], [-1.0, 0.0])),
    # CRLF, signs, exponents and a last line left unended
    (b"-1e-3,+.5,-0.5\r\n2E0,1.,-0\r\n3,0,-1", -1.0,
     ([-0.001, 2.0, 3.0], [0.5, 1.0, 0.0], [-0.5, -0.0, -1.0])),
    (b"1,0,-1\n", 1.0, None),  # x must rise above prev
    (b"0,0,-1\n0,0,-1\n", -math.inf, None),
    (b"0,0,0.5\n", -math.inf, None),
    (b"0,0,-1.5\n", -math.inf, None),
    (b"0,1.5,-1\n", -math.inf, None),
    (b"0,-1,-1\n", -math.inf, None),
    (b"1e999,0,-1\n", -math.inf, None),
    (b"-1e999,0,-1\n", -math.inf, None),
    (b"1,,-1\n", -math.inf, None),
    (b"1e,0,-1\n", -math.inf, None),
    (b"1,0,-1,\n", -math.inf, None),
    (b"1,0\n", -math.inf, None),
    (b"1\x0c,0,-1\n", -math.inf, None),
    (b"1\r,0,-1\n", -math.inf, None),
    (b"0,0,-1\r1,1,0\r", -math.inf, None),  # lone CRs are refused, though they end lines
    (b"1, 0.5,-0.5\n", -math.inf, None),
    (b"1_0,0,-1\n", -math.inf, None),
    (b"1,nan,-1\n", -math.inf, None),
    (b"0,0,-1\n\n", -math.inf, None),
    (b"# c\n0,0,-1\n", -math.inf, None),
    (b"1", -math.inf, None),
]


@pytest.mark.parametrize("block,prev,columns", PLAIN_CASES)
def test_the_bytes_pass_reads_plain_rows_only(block, prev, columns):
    assert repr(cli._plain_columns(block, prev)) == repr(columns)


def curve_text(table):
    """The text of a curve_tables() table, header first."""
    rows, _ = table
    return "x,mu,lambda\n" + "".join(f"{x!r},{mu!r},{lam!r}\n" for x, mu, lam in rows)


# a header, then text of the bytes that plain rows are made of and of bytes the bytes pass refuses
ODD_ROWS = st.text(alphabet="01.5e+-,\n\r\x0b\x0c\x1c _#x", max_size=40).map(
    lambda text: "x,mu,lambda\n" + text)


@settings(deadline=None, max_examples=300)
@given(st.one_of(decorated_tables().map(lambda table: table[0]), curve_tables().map(curve_text),
                 ODD_ROWS),
       st.sampled_from(BLOCKS))
def test_the_bytes_pass_refuses_a_block_or_reads_it_as_the_walk_does(text, block):
    # each block, after the last x that the walk read in the blocks before it
    data = text.encode()
    with mock.patch.object(cli, "_BLOCK_BYTES", block):
        blocks = list(cli._blocks(data, 0, len(data)))
    reader = cli._CurveReader()
    for piece in blocks:
        plain = None if reader.header is None else cli._plain_columns(piece, reader.last)
        with mock.patch.object(cli, "_plain_columns", return_value=None):  # the walk alone
            try:
                walked = reader._block_columns(piece)
            except DocumentError:
                assert plain is None
                return
        assert plain is None or repr(plain) == repr(walked)
        if walked[0]:
            reader.rows += len(walked[0])
            reader.last = walked[0][-1]


# a file is read as bytes, a block at a time
FILE_CASES = [(table.encode(), code, message) for table, code, message in TABLE_CASES] + [
    ("x,mu,lambda\n# é\n0,0,-1\n".encode(), 0, "ok\n"),
    (b"x,mu,lambda\n" + b"0,0,-1\n" * 20000 + b"\xff", 2,
     "error: input is not UTF-8: 'utf-8' codec can't decode byte 0xff in position 140012: "
     "invalid start byte\n"),
]


@pytest.mark.parametrize("table,code,message", FILE_CASES)
def test_verify_table_file_reports(tmp_path, table, code, message):
    path = tmp_path / "table.csv"
    path.write_bytes(table)
    got, out, err = run_main(["verify", str(path), "--table", "--kind", "dependent"])
    assert got == code
    assert (out, err) == (("", message) if code else (message, ""))


@pytest.mark.parametrize("table,code", [
    ("x,mu,lambda\n0,0,-1\n1,1,0\n", 3),  # a clean table: the tolerance is at fault
    ("x,mu,lambda\n0,0,-1\n1,x,0\n", 2),  # a defect in the table is reported first
])
def test_verify_table_checks_eps_after_the_table(table, code):
    got, out, _ = run_main(["verify", "-", "--table", "--kind", "dependent", "--eps", "0"], table)
    assert (got, out) == (code, "")


@settings(deadline=None, max_examples=300)
@given(curve_tables(), st.booleans(), st.sampled_from(BLOCKS))
def test_verify_table_explains_a_row_as_validate_set_does(table, as_bytes, block):
    rows, kind = table
    text = "x,mu,lambda\n" + "".join(f"{x!r},{mu!r},{lam!r}\n" for x, mu, lam in rows)
    with mock.patch.object(cli, "_BLOCK_BYTES", block):
        got = run_main(["verify", "-", "--table", "--kind", kind.value],
                       text.encode() if as_bytes else text)
    try:
        dset = validate_set(rows)
    except PseudoFuzzyError as exc:
        assert got == (2, "", f"error: invalid curve rows: {exc}\n")
    else:
        x = set_kind_violation(dset, kind)
        assert got == (0, "ok\n" if x is None else f"violation at x={fmt(x)}\n", "")


def first_violation_by_rows(rows, kind, eps=DEFAULT_EPS):
    """x of the first (x, mu, lam) row off the kind identity, checked a row at a time."""
    for x, mu, lam in rows:
        want = mu - 1.0 if kind is Kind.DEPENDENT else 0.0 - mu
        if abs(lam - want) > eps:
            return x
    return None


@settings(deadline=None, max_examples=400)
@given(decorated_tables(), st.sampled_from(BLOCKS))
def test_verify_table_explains_a_row_across_blocks(table, block):
    text, rows, kind, bad_line = table
    with mock.patch.object(cli, "_BLOCK_BYTES", block):
        got = run_main(["verify", "-", "--table", "--kind", kind.value], text.encode())
    if bad_line is not None:
        rows = rows[:bad_line[0]]  # a defect in the rows before the bad line is reported first
    try:
        validate_set(rows)
    except PseudoFuzzyError as exc:
        assert got == (2, "", f"error: invalid curve rows: {exc}\n")
    else:
        if bad_line is not None:
            assert got == (2, "", bad_line[1])
        else:
            x = first_violation_by_rows(rows, kind)
            assert got == (0, "ok\n" if x is None else f"violation at x={fmt(x)}\n", "")


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("first,second", [(0, 1), (3, 40), (40, 59)])
def test_verify_table_reports_the_first_of_violations_in_two_blocks(block, first, second):
    rows = [(float(i), 0.5, -0.5) for i in range(60)]
    for i in (first, second):
        rows[i] = (float(i), 0.25, -0.5)  # off lam = mu - 1 by 0.25
    text = "x,mu,lambda\n" + "".join(f"{x!r},{mu!r},{lam!r}\n" for x, mu, lam in rows)
    with mock.patch.object(cli, "_BLOCK_BYTES", block):
        got = run_main(["verify", "-", "--table", "--kind", "dependent"], text)
    assert got == (0, f"violation at x={first}\n", "")


@st.composite
def tampered_samples(draw):
    """A PTFN, a grid that may cross a chunk edge, and its sampled rows with up
    to two lams moved off the identity, some of them at a chunk's edge."""
    a = draw(st.floats(-100.0, 100.0))
    b = a + draw(st.floats(0.0, 50.0))
    c = b + draw(st.floats(0.01, 50.0))
    p = PseudoTfn(ptfn.TriangleShape(a, b, c), draw(st.sampled_from(list(Kind))))
    grid = draw(st.sampled_from([2, 101] + SIZES))
    rows = [(e.x, e.pair.mu, e.pair.lam) for e in discretize(p, grid, *cli._default_window(p))]
    edges = [i for i in (0, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK, grid - 1) if i < grid]
    spots = st.one_of(st.sampled_from(edges), st.integers(0, grid - 1))
    for i in draw(st.lists(spots, max_size=2)):
        x, mu, lam = rows[i]
        rows[i] = (x, mu, -1.0 - lam)  # still in [-1, 0]; off unless lam is -0.5
    return p, grid, rows


@settings(deadline=None, max_examples=40)
@given(tampered_samples())
def test_library_kind_checks_report_the_first_row(sample):
    p, grid, rows = sample
    dset = validate_set(rows)
    for kind in Kind:
        assert set_kind_violation(dset, kind) == first_violation_by_rows(rows, kind)
    assert kind_violation(p, grid) is None
