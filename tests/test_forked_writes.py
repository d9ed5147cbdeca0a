"""Bulk tables written by two processes: the CLI process and one forked
child take turns a chunk at a time. Stdout, stderr and the exit code must
be those of the one-process loop, which cli.main runs in this process
(its swapped-in stdout never forks). Every subprocess has a timeout, with
stdout on a pipe: a child that outlived the CLI would hold the pipe open
and make communicate time out."""

import os
import subprocess
import sys
import textwrap

import pytest
from test_streaming import run_main

HERE = os.path.dirname(__file__)
DEP = os.path.join(HERE, "data", "dep_0_1_2.json")
DEP2 = os.path.join(HERE, "data", "dep_1_2_3.json")
DIVQ = os.path.join(HERE, "data", "dep_1_2_4.json")
IND = os.path.join(HERE, "data", "ind_0_1_2.json")
TIMEOUT_S = 60

can_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
         and len(os.sched_getaffinity(0)) >= 2),
    reason="writes fork only with os.fork, os.sched_getaffinity and two CPUs",
)
# 12288 rows are 3 chunks, in one process; 12289 are 4, the least forked table,
# the child's last chunk one row, held in its buffer unless flushed; 16383,
# 16384, 16385, 32769, 50001 and 80001 are 4, 4, 5, 9, 13 and 20 chunks
SIZES = [12288, 12289, 16383, 16384, 16385, 32769, 50001, 80001]


# stdout buffered, as it is by default: a chunk left in a buffer would be lost
BUFFERED = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}


def run_cold(argv, **kwargs):
    """(exit code, stdout, stderr) of `python -m pseudofuzzy argv`, stdout on a pipe."""
    proc = subprocess.run([sys.executable, "-m", "pseudofuzzy", *argv], capture_output=True,
                          timeout=TIMEOUT_S, env=BUFFERED, **kwargs)
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


@can_fork
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("argv", [
    ["curve", DEP], ["curve", IND], ["curve", DEP, "--xmin", "-0.5", "--xmax", "2.25"],
    ["curve", IND, "--xmin", "0.25", "--xmax", "3"],
], ids=["dep", "ind", "dep-window", "ind-window"])
def test_curves_match_one_process(argv, size):
    argv = [*argv, "--n", str(size)]
    assert run_cold(argv) == run_main(argv)


@can_fork
@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
def test_tables_match_one_process(op, size):
    argv = ["arith", op, DEP, DIVQ if op == "div" else DEP2, "--levels", str(size)]
    assert run_cold(argv) == run_main(argv)


# near 2**53 the grid repeats an x: first in row 5002, in the child's chunk
# 1, or in row 9002, in the parent's chunk 2; the chunks before it are written
@can_fork
@pytest.mark.parametrize("xmin, xmax, index, lines", [
    ("9007199254735992", "9007199254755991", 5002, 4097),
    ("9007199254731992", "9007199254751991", 9002, 8193),
], ids=["child-chunk", "parent-chunk"])
def test_first_error_and_partial_output_match_one_process(xmin, xmax, index, lines):
    argv = ["curve", DEP, "--n", "20000", "--xmin", xmin, "--xmax", xmax]
    code, out, err = run_cold(argv)
    assert (code, out, err) == run_main(argv)
    assert code == 3 and out.count("\n") == lines
    assert err == f"error: duplicate support point x=9007199254740994.0 at index {index}\n"


@can_fork
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_write_failure_of_a_forked_table_is_one_line():
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "pseudofuzzy", "curve", DEP, "--n", "100001"],
                              stdout=full, stderr=subprocess.PIPE, timeout=TIMEOUT_S)
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"error: cannot write output: ")
    assert proc.stderr.count(b"\n") == 1


@can_fork
def test_one_cpu_writes_the_same_bytes():
    argv = ["arith", "mul", DEP, DEP2, "--levels", "50001"]
    assert run_cold(argv, preexec_fn=one_cpu) == run_cold(argv)


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
        return fork()

    os.fork = counted
    if sys.argv[1] == "one-cpu":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if sys.argv[1] == "swapped":
        sys.stdout = io.StringIO()
    assert cli.main(sys.argv[2:]) == 0
    print(forks, file=sys.stderr)
    """
)


@can_fork
@pytest.mark.parametrize("how, n, forks", [
    ("real", 80001, 1),
    ("one-cpu", 80001, 0),
    ("real", 101, 0),
    ("swapped", 80001, 0),
])
def test_only_large_tables_on_two_cpus_and_the_real_stdout_fork(how, n, forks):
    proc = subprocess.run([sys.executable, "-c", FORK_COUNT, how, "curve", DEP, "--n", str(n)],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == f"{forks}\n".encode()


@can_fork
def test_a_table_is_written_by_one_process_if_the_fork_fails():
    argv = ["curve", DEP, "--n", "80001"]
    proc = subprocess.run([sys.executable, "-c", FORK_COUNT, "fork-fails", *argv],
                          capture_output=True, timeout=TIMEOUT_S, env=BUFFERED)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr) == (*run_main(argv)[:2], b"1\n")
