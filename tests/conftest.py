"""Helpers that several test modules share: CLI runs in a subprocess
(run_cli, run_cold, count_forks, each started by PYTHON) and in this process (run_main), the
can_fork skip mark, and hypothesis strategies of curve tables. Importing this module also lets
the CLI subprocesses that tests start import the package from src/, as
pytest's own `pythonpath` setting lets the tests themselves."""

import contextlib
import io
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import strategies as st

from pseudofuzzy import Kind, cli

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

TIMEOUT_S = 60
# the interpreter that starts a CLI process, with this one's -b or -bb: under
# -bb a bytes == str comparison raises in a cold process as in this one
PYTHON = [sys.executable, *["-b"] * sys.flags.bytes_warning]
# stdout buffered, as it is by default: a chunk left in a buffer would be lost
BUFFERED = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}


def run_cli(argv, stdin=None, **kwargs):
    """`python -m pseudofuzzy argv` in a subprocess; stdin is str, bytes or None."""
    return subprocess.run(
        [*PYTHON, "-m", "pseudofuzzy", *argv],
        input=stdin.encode() if isinstance(stdin, str) else stdin,
        capture_output=True,
        **kwargs,
    )


def run_cold(argv, **kwargs):
    """(exit code, stdout, stderr) of `python -m pseudofuzzy argv`, stdout on a pipe."""
    proc = subprocess.run([*PYTHON, "-m", "pseudofuzzy", *argv], capture_output=True,
                          timeout=TIMEOUT_S, env=BUFFERED, **kwargs)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# the CLI forks a writer or reader only where all three hold
can_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
         and len(os.sched_getaffinity(0)) >= 2),
    reason="writes and reads fork only with os.fork, os.sched_getaffinity and two CPUs",
)


def run_main(argv, stdin="", stdout=None):
    """Exit code, stdout and stderr of cli.main run in this process.

    argparse's SystemExit gives the exit code. stdin given as bytes comes
    with a buffer, as a real stdin does. Given a stdout stream, it is
    written to, and the stdout returned is None.
    """
    out, err = stdout or io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin)) if isinstance(stdin, bytes) else io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, (out.getvalue() if stdout is None else None), err.getvalue()


# cli.main(argv) with os.fork counted: the count is the last line of stderr,
# and the exit code cli.main's. Its first argument is how: "one-cpu" pins
# the process to one CPU, "swapped" swaps a StringIO in for stdout,
# "fork-fails" makes os.fork raise, "child-dies" ends each child at once,
# "short-answer" makes each child's os.write write 8 bytes; "real" changes nothing
FORK_COUNT = textwrap.dedent(
    """
    import io, os, sys
    from pseudofuzzy import cli

    forks = 0
    fork = os.fork

    def counted():
        global forks
        forks += 1
        if sys.argv[1] == "fork-fails":
            raise BlockingIOError(11, "Resource temporarily unavailable")
        pid = fork()
        if pid == 0 and sys.argv[1] == "child-dies":
            os._exit(0)
        if pid == 0 and sys.argv[1] == "short-answer":
            write = os.write
            os.write = lambda fd, data: write(fd, data[:8])
        return pid

    os.fork = counted
    if sys.argv[1] == "one-cpu":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if sys.argv[1] == "swapped":
        sys.stdout = io.StringIO()
    code = cli.main(sys.argv[2:])
    print(forks, file=sys.stderr)
    sys.exit(code)
    """
)


def count_forks(how, argv, **kwargs):
    """The completed FORK_COUNT process for how and argv."""
    return subprocess.run([*PYTHON, "-c", FORK_COUNT, how, *argv], timeout=TIMEOUT_S, **kwargs)


# bytes per block: small ones put a defect, a violation or the header on
# the first or last line of a block, and carry prev and the line count over
BLOCKS = [cli._BLOCK_BYTES, 1, 8, 16, 32, 64]

# values that break a row, per column: non-finite, or out of range
NON_FINITE = [math.nan, math.inf, -math.inf]
BAD_VALUES = [NON_FINITE, NON_FINITE + [-5e-324, -0.5, 1.0000000000000002, 1.5],
              NON_FINITE + [5e-324, 0.5, -1.0000000000000002, -1.5]]


@st.composite
def curve_tables(draw):
    """Rows of a curve table with at most one defect, and its kind.

    A run of the rows shares one (mu, lam), as a curve's rows outside its
    support share (0, -1) or (0, 0); the defect may fall in it.
    """
    xs = sorted(draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8, unique=True)))
    grades = st.tuples(st.floats(0.0, 1.0), st.floats(-1.0, 0.0))
    rows = [[x, *draw(grades)] for x in xs]
    start, stop = sorted(draw(st.integers(0, len(rows))) for _ in range(2))
    shared = draw(st.sampled_from([(0.0, -1.0), (0.0, 0.0)]) | grades)
    for row in rows[start:stop]:
        row[1:] = shared
    i = draw(st.integers(0, len(rows) - 1))
    defect = draw(st.sampled_from(["none", "value", "repeat", "lower"]))
    if defect == "value":
        column = draw(st.integers(0, 2))
        rows[i][column] = draw(st.sampled_from(BAD_VALUES[column]))
    elif defect == "repeat" and i:
        rows[i][0] = rows[i - 1][0]
    elif defect == "lower" and i:
        rows[i][0] = draw(st.floats(-2e6, rows[i - 1][0], exclude_max=True))
    return rows, draw(st.sampled_from(list(Kind)))


# lines a table may hold between its rows, and before its header
FILLERS = ["", "# a comment", "#1,2,3", "# x,mu,lambda"]
ENDS = ["\n", "\r\n"]


@st.composite
def decorated_tables(draw):
    """A curve table as text, with up to two defects: its rows may hold one
    (curve_tables), and a line may be one that is not three numbers.

    Returns the text, the rows, the kind, and the index and message of that
    line or None. Comment, blank and CRLF lines come between the rows and
    before the header.
    """
    rows, kind = draw(curve_tables())
    lines = [f"{x!r},{mu!r},{lam!r}" for x, mu, lam in rows]
    bad_line = None
    i = draw(st.integers(0, len(rows) - 1))
    defect = draw(st.sampled_from(["none", "fields", "text", "header"]))
    if defect == "fields":
        lines[i] = draw(st.sampled_from([lines[i].rsplit(",", 1)[0], lines[i] + ",0"]))
        bad_line = i, f"error: line {i + 2}: expected 3 comma-separated values\n"
    elif defect == "text":
        fields = lines[i].split(",")
        fields[draw(st.integers(0, 2))] = draw(st.sampled_from(["", "x", "1e", "0x1"]))
        lines[i] = ",".join(fields)
        bad_line = i, f"error: line {i + 2}: non-numeric value\n"
    elif defect == "header":  # a header is a row's line after line 1
        lines[i] = "x,mu,lambda"
        bad_line = i, f"error: line {i + 2}: non-numeric value\n"
    text = ""
    for line in draw(st.lists(st.sampled_from(FILLERS), max_size=2)) + ["x,mu,lambda"]:
        text += line + draw(st.sampled_from(ENDS))
    for line in lines:
        for filler in draw(st.lists(st.sampled_from(FILLERS), max_size=2)):
            text += filler + draw(st.sampled_from(ENDS))
        text += line + draw(st.sampled_from(ENDS))
    return text, rows, kind, bad_line
