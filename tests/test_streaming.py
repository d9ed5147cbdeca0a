"""Streamed CLI output: rows match the library at chunk edges, memory stays
flat in the row count, and verify --table checks a table line by line."""

import contextlib
import io
import sys
import tracemalloc

import pytest

from pseudofuzzy import PseudoTfn, add, cut_table, discretize, div, mul, sub
from pseudofuzzy import cli

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


def run_main(argv, stdin="", stdout=None):
    """Exit code, stdout and stderr of cli.main run in this process."""
    out, err = stdout or io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, (out.getvalue() if stdout is None else None), err.getvalue()


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
    # i * span overflows from row 4994 on, inside the second chunk
    argv = ["curve", doc(tmp_path, DEP, "p"), "--n", "6000", "--xmin", "-1.8e304",
            "--xmax", "1.8e304"]
    code, out, err = run_main(argv)
    assert code == 3
    assert err == "error: x must be finite, got inf\n"
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
    assert traced_peak(["verify", str(table), "--table", "--kind", "dependent"]) < 6 * size


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
]


@pytest.mark.parametrize("table,code,message", TABLE_CASES)
def test_verify_table_reports(table, code, message):
    got, out, err = run_main(["verify", "-", "--table", "--kind", "dependent"], table)
    assert got == code
    assert (out, err) == (("", message) if code else (message, ""))


@pytest.mark.parametrize("table,code", [
    ("x,mu,lambda\n0,0,-1\n1,1,0\n", 3),  # a clean table: the tolerance is at fault
    ("x,mu,lambda\n0,0,-1\n1,x,0\n", 2),  # a defect in the table is reported first
])
def test_verify_table_checks_eps_after_the_table(table, code):
    got, out, _ = run_main(["verify", "-", "--table", "--kind", "dependent", "--eps", "0"], table)
    assert (got, out) == (code, "")
