"""Command-line interface: JSON numbers in, CSV curves and cut tables out.

A pseudo triangular fuzzy number is described by a JSON document with
exactly the fields a, b, c (numbers) and kind ("dependent" or
"independent"). Commands read the document from a file path or from
standard input when the path is "-", as bytes. verify --table reads a
curve CSV a block of lines at a time, as (xs, mus, lams) columns that
ptfn's one kind checker takes as they come: a block of plain rows is
checked as bytes in one pass, and any other is decoded and walked line
by line. A plain block whose rows all spell mu and lam alike is read as
its xs, with one mu and one lam that they share. Each command returns its
output as a head, columns_of and a row count, and main writes them with
_write_rows, the only code here that writes standard output. columns_of
computes the three columns of any run of rows, so a table is written a
chunk at a time, its columns interleaved into one % template.
On two CPUs a large table is written by two processes, this one the even
chunks and a forked child the odd ones, in one turn loop; and a large
verify --table input is read by two, a forked child checking the lines
after its middle while this one checks those before. One rule covers
both: a forked schedule returns where it stopped, and this process
finishes the rest as on one CPU, so output and errors are those of one
process.

Exit codes: 0 success, 2 parse/format/I-O error, 3 domain error, 4 kind
mismatch, 5 divisor straddles zero.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys
from collections.abc import Callable, Iterator, Sequence
from itertools import islice
from operator import lt

from . import arith
from .core import (
    DEFAULT_EPS,
    _bad_row,
    _require_eps,
    classify_case,
    validate_pair,
)
from .errors import (
    BadRange,
    DivisorStraddlesZero,
    DocumentError,
    KindMismatch,
    PseudoFuzzyError,
)
from .ptfn import (
    _CHUNK_ROWS,
    Kind,
    PseudoTfn,
    TriangleShape,
    _default_window,
    _first_violation,
    _sample,
    alpha_cut_mu,
    beta_cut_lambda,
    pair_at,
)

# no command calls these: kept because the benchmark's traced replay wraps them as cli.<name>
from .core import validate_set  # noqa: F401
from .ptfn import discretize, kind_violation, set_kind_violation  # noqa: F401

TYPE_CHECKING = False
if TYPE_CHECKING:
    from .ptfn import Columns, ColumnsOf

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_KIND = 4
EXIT_DIVISOR = 5

# first matching class wins, so subclasses come before PseudoFuzzyError
_EXIT_CODES = (
    (DocumentError, EXIT_PARSE),
    (KindMismatch, EXIT_KIND),
    (DivisorStraddlesZero, EXIT_DIVISOR),
    (PseudoFuzzyError, EXIT_DOMAIN),
)

_DOCUMENT_FIELDS = ("a", "b", "c", "kind")
_CURVE_HEADER = "x,mu,lambda"
_NO_HEADER = f"curve CSV must start with header '{_CURVE_HEADER}'"

# a row of three values as _fmt writes them; "%.12g" % v is f"{v:.12g}"
_ROW = "%.12g,%.12g,%.12g\n"
# bytes of a CSV table checked, split and parsed at a time. A block's
# fields and floats are held together: verify --table's traced peak is the
# file's size plus about 25 times this
_BLOCK_BYTES = 1 << 14
# the bytes of a plain row's numbers: float() reads them alike as bytes and str; none spells nan
_NUMBER_BYTES = b"0123456789+-.eE"
# the UTF-8 of each line break of str.splitlines(): a match starts on a
# character, and takes a "\r\n" pair whole
_LINE_BREAK = re.compile(rb"\r\n?|[\n\x0b\x0c\x1c-\x1e]|\xc2\x85|\xe2\x80[\xa8\xa9]")
# tables of this many chunks or more are written by two processes
_FORK_CHUNKS = 4
# curve CSVs of this many bytes or more are read by two processes
_FORK_BYTES = 1 << 20
# the size of the forked reader's answer: a row count and two float reprs, padded
_ANSWER_BYTES = 80
# what a command returns, for main to write: a head, columns_of and the row
# count, where columns_of(start, stop) is the three columns of the rows start to stop - 1
_Output = tuple[str, "ColumnsOf", int]


def _fmt(value: float) -> str:
    # 12 significant digits, trailing zeros stripped; + 0.0 folds -0.0
    return f"{value + 0.0:.12g}"


def _given(head: str) -> _Output:
    """The output of a command that prints head alone."""
    return head, lambda start, stop: ((), (), ()), 0


def _write_rows(head: str, columns_of: ColumnsOf, count: int) -> None:
    """Write head, then each row of three values as a CSV line, _CHUNK_ROWS rows per write.

    A chunk's columns are interleaved into one run of values and
    formatted as _fmt does, by one % template. A chunk is computed, and
    so checked, in full before it is written: an error in the first chunk
    leaves stdout empty; a later one leaves the chunks before it written.
    A table of _FORK_CHUNKS chunks or more is written by two processes
    when there are two CPUs (see _write_forked), with the same output,
    errors and partial output.
    """
    chunks = max(-(-count // _CHUNK_ROWS), 1)  # one at least, for the head

    def text_of(k: int) -> str:
        start = k * _CHUNK_ROWS
        columns = list(columns_of(start, min(start + _CHUNK_ROWS, count)))
        size = len(columns[0])
        values = [0.0] * (3 * size)
        for i in range(3):
            # + 0.0 folds -0.0, as in _fmt; a column is dropped once it is in values
            values[i::3] = [value + 0.0 for value in columns[i]]
            columns[i] = None
        return ("" if k else head) + _ROW * size % tuple(values)

    # a stream a caller swapped in is written by this process alone
    real_stdout = sys.stdout is not None and sys.stdout is sys.__stdout__
    forked = chunks >= _FORK_CHUNKS and real_stdout and _two_cpus()
    for k in range(_write_forked(text_of, chunks) if forked else 0, chunks):
        _write(text_of(k))


def _two_cpus() -> bool:
    affinity = getattr(os, "sched_getaffinity", None)
    return hasattr(os, "fork") and affinity is not None and len(affinity(0)) >= 2


def _write(text: str) -> None:
    if sys.stdout is None:  # started with descriptor 1 closed
        raise OSError("stdout is closed")
    sys.stdout.write(text)  # looked up per call: callers may swap sys.stdout


def _write_forked(text_of: Callable[[int], str], chunks: int) -> int:
    """Write chunks of text_of in order from 0, the odd ones from a forked child.

    The two processes run the one loop of _take_turns, on a pipe each way.
    Return the first chunk left unwritten, for the caller to write it and
    the rest: 0 if no child can be forked, chunks once all are written.
    """
    sys.stdout.flush()  # the child's copy of the buffer starts empty
    fds = []
    try:
        fds += os.pipe()  # the turn, parent to child
        fds += os.pipe()  # the turn, child to parent
        pid = os.fork()
    except OSError:  # no descriptor or process to spare
        for fd in fds:
            os.close(fd)
        return 0
    turn_r, turn_w, ack_r, ack_w = fds
    if pid == 0:
        try:
            os.close(turn_w)
            os.close(ack_r)
            _take_turns(text_of, 1, chunks, turn_r, ack_w)
        finally:  # an error, too, ends the child here: the parent computes the chunk again
            os._exit(0)  # no cleanup and no flush: the parent owns the exit
    os.close(turn_r)
    os.close(ack_w)
    try:
        return _take_turns(text_of, 0, chunks, ack_r, turn_w)
    finally:
        os.close(turn_w)
        os.close(ack_r)
        os.waitpid(pid, 0)


def _take_turns(text_of: Callable[[int], str], first: int, chunks: int, wait: int, done: int) -> int:
    """Write chunks first, first + 2, ... of text_of in turn with another process; return chunks.

    Chunk k is computed while the other process writes chunk k - 1, and
    written once that process sends "t" on wait; a "t" on done then passes
    the turn. The loop runs to k = chunks, an empty chunk, so one process
    waits for the other's last one. A chunk's error is raised only once
    the chunk before it is written. At the end of wait the other process
    stopped before writing chunk k - 1, and k - 1 is returned.
    """
    for k in range(first, chunks + 1, 2):
        error = None
        try:
            text = text_of(k) if k < chunks else ""
        except Exception as exc:  # raised only once chunk k - 1 is written
            error = exc
        if k and os.read(wait, 1) != b"t":  # the other process stopped
            return k - 1
        if error is not None:
            raise error
        _write(text)
        sys.stdout.flush()
        try:
            os.write(done, b"t")
        except OSError:  # the other process is gone; the end of its pipe tells
            pass
    return chunks


def _unique_fields(pairs: list[tuple[str, object]]) -> dict[str, object]:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise DocumentError(f"duplicate field: {key}")
        doc[key] = value
    return doc


def parse_ptfn(text: str | bytes) -> PseudoTfn:
    """Parse a JSON PTFN document; unknown or missing fields are rejected."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        # an integer too large for a float is read as inf, as 1e400 is: float() of it raises
        doc = json.loads(text, object_pairs_hook=_unique_fields,
                         parse_int=lambda s: int(s) if math.isfinite(float(s)) else float(s))
    except UnicodeDecodeError as exc:
        raise DocumentError(f"input is not UTF-8: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DocumentError(f"malformed JSON: {exc}") from None
    except MemoryError:
        raise DocumentError("cannot parse JSON: out of memory") from None
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    missing = [f for f in _DOCUMENT_FIELDS if f not in doc]
    if missing:
        raise DocumentError(f"missing fields: {', '.join(missing)}")
    unknown = [f for f in doc if f not in _DOCUMENT_FIELDS]
    if unknown:
        raise DocumentError(f"unknown fields: {', '.join(sorted(unknown))}")
    for field in ("a", "b", "c"):
        value = doc[field]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise DocumentError(f"field {field} must be a number, got {value!r}")
    try:
        kind = Kind(doc["kind"])
    except ValueError:
        raise DocumentError(
            f"unknown kind {doc['kind']!r}; expected 'dependent' or 'independent'"
        ) from None
    try:
        shape = TriangleShape(doc["a"], doc["b"], doc["c"])
    except PseudoFuzzyError as exc:
        raise DocumentError(f"invalid shape: {exc}") from None
    return PseudoTfn(shape, kind)


def _read_bytes(path: str) -> bytes:
    """The bytes of path, or of stdin for "-", checked to be UTF-8.

    Input that is not ASCII is decoded once in full, only to check it: a
    decoding error names its place in the whole input, before any row's defect.
    """
    try:
        if path == "-":
            # bytes, decoded strictly: the text layer may use surrogateescape
            if sys.stdin is None:  # started with descriptor 0 closed
                raise DocumentError("cannot read -: stdin is closed")
            stream = getattr(sys.stdin, "buffer", None)  # none on a text stream swapped in
            data = sys.stdin.read().encode() if stream is None else stream.read()
        else:
            with open(path, "rb") as handle:
                data = handle.read()
        if not data.isascii():
            data.decode("utf-8")
        return data
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except MemoryError:
        raise DocumentError(f"cannot read {path}: out of memory") from None
    except UnicodeError as exc:  # a lone surrogate in a swapped-in text stream fails to encode
        raise DocumentError(f"input is not UTF-8: {exc}") from None


def _load_ptfn(path: str) -> PseudoTfn:
    return parse_ptfn(_read_bytes(path))


def _blocks(data: bytes, start: int, stop: int) -> Iterator[bytes]:
    """data[start:stop] in blocks of about _BLOCK_BYTES, each ending just after a line break.

    data is UTF-8, and start and stop are 0, len(data) or just after a line
    break. Neither a UTF-8 sequence nor a "\\r\\n" pair straddles a block's
    end, so the blocks decode, and split, into the lines of the whole text.
    """
    while start < stop:
        found = _LINE_BREAK.search(data, start + _BLOCK_BYTES, stop)
        end = found.end() if found else stop
        yield data[start:end]
        start = end


def _middle_line(data: bytes) -> int:
    """The start of the first line of UTF-8 data that starts at or after its middle, or len(data)."""
    found = _LINE_BREAK.search(data, len(data) // 2)
    return found.end() if found else len(data)


def _plain_columns(block: bytes, prev: float) -> Columns | None:
    """The (xs, mus, lams) columns of a block of plain rows that pass the row check after prev, else None.

    A plain row is three numbers of _NUMBER_BYTES between two commas, ended
    by "\\n", "\\r\\n" or the block's end. Its block is checked whole in
    C-level builtins, and read as a walk of its decoded lines reads it.
    A block whose rows all end in the first row's ",mu,lam" bytes, as a
    curve's rows outside its support do, is read as its xs alone: its
    columns are the xs, [mu] and [lam], one pair that every x shares.
    """
    text = block.replace(b"\r\n", b"\n")
    if not text.endswith(b"\n"):
        text += b"\n"  # a last line left unended
    shape = text.translate(None, _NUMBER_BYTES)  # ",,\n" per line
    rows = len(shape) // 3
    if shape != b",,\n" * rows:  # also where rows is 0: shape holds the last "\n"
        return None
    # the first row's ",mu,lam\n": a row holds two commas, so it occurs only
    # as the end of a row, and count is rows when every row ends in it
    grades = text[text.index(b","):text.index(b"\n") + 1]
    try:
        if text.endswith(grades) and text.count(grades) == rows:
            xs = list(map(float, text.replace(grades, b"\n").split(b"\n")[:-1]))
            mu, lam = map(float, grades[1:-1].split(b","))
            mus, lams = [mu], [lam]
        else:
            values = list(map(float, text[:-1].replace(b"\n", b",").split(b",")))
            xs, mus, lams = values[0::3], values[1::3], values[2::3]
    except ValueError:  # a field that is not a number, such as "" or "1e"
        return None
    # x rises strictly from above prev to below inf; no field spells nan, which fools min and max
    rising = xs[0] > prev and xs[-1] < math.inf and all(map(lt, xs, islice(xs, 1, None)))
    in_range = min(mus) >= 0.0 and max(mus) <= 1.0 and min(lams) >= -1.0 and max(lams) <= 0.0
    return (xs, mus, lams) if rising and in_range else None


class _CurveReader:
    """Reads a curve CSV's lines a block at a time, and keeps its place between reads.

    Blank lines and lines starting with # are skipped, and line numbers
    count the lines kept, the header being line 1. Blocks stay bytes until
    one needs its lines: one _block_columns call checks a block's data
    lines, and returns their columns or raises the DocumentError of the
    first bad one. A reader made with the header takes every line it reads
    as a data line.
    """

    __slots__ = ("header", "rows", "first", "last")

    def __init__(self, header: str | None = None) -> None:
        self.header = header
        self.rows = 0  # data lines read
        self.first = math.inf  # the x of the first row, inf until a row is read
        self.last = -math.inf  # the x of the last row read

    def columns(self, data: bytes, start: int, stop: int) -> Iterator[Columns]:
        """Yield the (xs, mus, lams) columns of the data lines of data[start:stop]."""
        for block in _blocks(data, start, stop):
            columns = self._block_columns(block)
            if columns[0]:
                if not self.rows:
                    self.first = columns[0][0]
                self.rows += len(columns[0])
                self.last = columns[0][-1]
                yield columns

    def _block_columns(self, block: bytes) -> Columns:
        """The (xs, mus, lams) columns of a block's data lines, which follow self.rows rows.

        Each line must hold three numbers, and its row pass core's one row
        check, the first after the row at self.last. A block of plain rows
        after the header is checked whole by _plain_columns; any other is
        decoded and walked line by line. The walk skips blank and # lines,
        takes the first line kept for the header if none was read, and
        raises the DocumentError of the first bad line.
        """
        prev = self.last
        columns = None if self.header is None else _plain_columns(block, prev)
        if columns is not None:
            return columns
        lines = [line for line in block.decode().splitlines() if line and not line.startswith("#")]
        if self.header is None and lines:
            self.header = lines.pop(0)
            if self.header != _CURVE_HEADER:
                raise DocumentError(_NO_HEADER)
        xs, mus, lams = [], [], []
        for i, line in enumerate(lines, self.rows):
            parts = line.split(",")
            if len(parts) != 3:
                raise DocumentError(f"line {i + 2}: expected 3 comma-separated values")
            try:
                x, mu, lam = map(float, parts)
            except ValueError:
                raise DocumentError(f"line {i + 2}: non-numeric value") from None
            if not (math.isfinite(x) and 0.0 <= mu <= 1.0 and -1.0 <= lam <= 0.0 and x > prev):
                try:
                    _bad_row(i, prev, x, mu, lam)
                except PseudoFuzzyError as exc:
                    raise DocumentError(f"invalid curve rows: {exc}") from None
            xs.append(x)
            mus.append(mu)
            lams.append(lam)
            prev = x
        return xs, mus, lams

    def end(self) -> None:
        """Raise the DocumentError of a table that has no header or no data rows."""
        if self.header is None:
            raise DocumentError(_NO_HEADER)
        if not self.rows:
            raise DocumentError("curve CSV has no data rows")


def _table_violation(data: bytes, kind: Kind, eps: float) -> float | None:
    """The first kind violation of the curve CSV data, read as _CurveReader reads it.

    A table of _FORK_BYTES or more is read by two processes when there are
    two CPUs (see _read_forked); this process reads what they leave, and
    the verdict and errors are those of one.
    """
    reader = _CurveReader()
    split = _middle_line(data)
    violation, end = None, 0
    if len(data) >= _FORK_BYTES and split < len(data) and _two_cpus():
        violation, end = _read_forked(reader, data, split, kind, eps)
    later = _first_violation(reader.columns(data, end, len(data)), kind, eps)
    reader.end()
    return later if violation is None else violation


def _read_forked(
    reader: _CurveReader, data: bytes, split: int, kind: Kind, eps: float
) -> tuple[float | None, int]:
    """(violation, end): the first kind violation of data[:end], its lines from split read by a child.

    The child reads them as data lines, and if they pass writes its row
    count, first x and first violation to a pipe as one _ANSWER_BYTES
    answer. Meanwhile this process reads data[:split]; a defect there
    stops the child. It takes the child's answer, and end is len(data),
    only if the child's first x lies above its own last x; otherwise end
    is split, and 0 if no child can be forked. The caller reads data[end:]
    with the same reader, whose end() then refuses a table whose header
    this half did not hold, as a read of data[split:] would.
    """
    fds = []
    try:
        fds += os.pipe()
        pid = os.fork()
    except OSError:  # no descriptor or process to spare
        for fd in fds:
            os.close(fd)
        return None, 0
    answer_r, answer_w = fds
    if pid == 0:
        try:
            os.close(answer_r)
            half = _CurveReader(_CURVE_HEADER)
            violation = _first_violation(half.columns(data, split, len(data)), kind, eps)
            os.write(answer_w, f"{half.rows} {half.first!r} {violation!r}".encode().ljust(_ANSWER_BYTES))
        finally:
            os._exit(0)  # no cleanup and no flush: the parent owns the exit
    os.close(answer_w)
    try:
        violation = _first_violation(reader.columns(data, 0, split), kind, eps)
        answer = os.read(answer_r, _ANSWER_BYTES)  # short if the child failed or died
    except BaseException:  # the first defect is in this half: the child's cannot come first
        os.kill(pid, 9)  # SIGKILL, 9 on every POSIX system; its zombie keeps the pid ours
        raise
    finally:
        os.close(answer_r)
        os.waitpid(pid, 0)
    if len(answer) == _ANSWER_BYTES:
        rows, first, later = answer.split()
        if float(first) > reader.last:  # the row check of the child's first row
            reader.rows += int(rows)
            if violation is None and later != b"None":
                violation = float(later)
            return violation, len(data)
    return violation, split


def cmd_eval(args: argparse.Namespace) -> _Output:
    p = _load_ptfn(args.ptfn)
    pair = pair_at(p, args.x)
    return _given(f"{_fmt(args.x)},{_fmt(pair.mu)},{_fmt(pair.lam)}\n")


def cmd_curve(args: argparse.Namespace) -> _Output:
    p = _load_ptfn(args.ptfn)
    lo, hi = _default_window(p)
    # a side filled in past the float range: name the window, not an option that was not given
    if (args.xmin is None and lo == -math.inf) or (args.xmax is None and hi == math.inf):
        raise BadRange(f"default window of ({p.a!r}, {p.b!r}, {p.c!r}) is not finite: give --xmin and --xmax")
    xmin = lo if args.xmin is None else args.xmin
    xmax = hi if args.xmax is None else args.xmax
    return _CURVE_HEADER + "\n", *_sample(p, args.n, xmin, xmax)


def cmd_classify(args: argparse.Namespace) -> _Output:
    pair = validate_pair(args.mu, args.lam)
    return _given(classify_case(pair, args.eps).name + "\n")


def cmd_cut(args: argparse.Namespace) -> _Output:
    p = _load_ptfn(args.ptfn)
    if args.which == "mu":
        interval = alpha_cut_mu(p, args.level)
    else:
        interval = beta_cut_lambda(p, args.level)
    return _given(f"{_fmt(interval.lo)},{_fmt(interval.hi)}\n")


def cmd_arith(args: argparse.Namespace) -> _Output:
    if args.ptfn1 == "-" and args.ptfn2 == "-":
        raise DocumentError("only one operand may come from stdin")
    p = _load_ptfn(args.ptfn1)
    q = _load_ptfn(args.ptfn2)
    if args.op in ("add", "sub"):
        columns_of, count = arith._cuts(getattr(arith, args.op)(p, q), args.levels)
    else:
        columns_of, count = arith._products(args.op, p, q, args.levels)
    # each operation has checked that p and q share the kind of the result
    return f"# kind={p.kind.value}\nalpha,lo,hi\n", columns_of, count


def cmd_verify(args: argparse.Namespace) -> _Output:
    if args.table:
        if args.kind is None:
            raise DocumentError("--table requires --kind")
        violation = _table_violation(_read_bytes(args.input), Kind(args.kind), args.eps)
    elif args.kind is not None:
        raise DocumentError("--kind requires --table")
    else:
        # a number's lam is derived from its mu, so it keeps its kind identity at every x
        _load_ptfn(args.input)
        violation = None
    _require_eps(args.eps)  # after the input, whose defects take precedence
    return _given(("ok" if violation is None else f"violation at x={_fmt(violation)}") + "\n")


class _NegativeNumber:
    """argparse's negative-number matcher, asked only of strings that start with "-": anything float() reads."""

    @staticmethod
    def match(text: str) -> bool:
        try:
            float(text)
        except ValueError:
            return False
        return True


class _Parser(argparse.ArgumentParser):
    """Takes "-7.7e-05", "-inf" and "-nan" for negative numbers, not options; subparsers inherit it."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NegativeNumber


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pseudofuzzy",
        description="Evaluate, cut, classify, and combine pseudo triangular fuzzy numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="print one x,mu,lambda row at a point")
    p_eval.add_argument("ptfn", help="PTFN JSON file, or - for stdin")
    p_eval.add_argument("x", type=float, help="evaluation point")
    p_eval.set_defaults(handler=cmd_eval)

    p_curve = sub.add_parser("curve", help="emit a CSV curve of both memberships")
    p_curve.add_argument("ptfn", help="PTFN JSON file, or - for stdin")
    p_curve.add_argument("--n", type=int, default=101, help="sample count (default 101)")
    p_curve.add_argument(
        "--xmin", type=float, default=None, help="window start (default a - (c-a))"
    )
    p_curve.add_argument(
        "--xmax", type=float, default=None, help="window end (default c + (c-a))"
    )
    p_curve.set_defaults(handler=cmd_curve)

    p_classify = sub.add_parser("classify", help="label a (mu, lambda) pair A, B, or C")
    p_classify.add_argument("mu", type=float, help="positive membership in [0, 1]")
    p_classify.add_argument("lam", type=float, help="negative membership in [-1, 0]")
    p_classify.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p_classify.set_defaults(handler=cmd_classify)

    p_cut = sub.add_parser("cut", help="print lo,hi of a membership level cut")
    p_cut.add_argument("ptfn", help="PTFN JSON file, or - for stdin")
    p_cut.add_argument("which", choices=("mu", "lambda"), help="which membership to cut")
    p_cut.add_argument("level", type=float, help="cut level")
    p_cut.set_defaults(handler=cmd_cut)

    p_arith = sub.add_parser("arith", help="combine two numbers; emit an alpha,lo,hi table")
    p_arith.add_argument("op", choices=("add", "sub", "mul", "div"))
    p_arith.add_argument("ptfn1", help="left operand JSON file, or - for stdin")
    p_arith.add_argument("ptfn2", help="right operand JSON file, or - for stdin")
    p_arith.add_argument(
        "--levels", type=int, default=arith.DEFAULT_LEVELS, help="level count (default 11)"
    )
    p_arith.set_defaults(handler=cmd_arith)

    p_verify = sub.add_parser("verify", help="check the kind identity of a number or table")
    p_verify.add_argument("input", help="PTFN JSON file (or curve CSV with --table), - for stdin")
    p_verify.add_argument("--eps", type=float, default=DEFAULT_EPS)
    p_verify.add_argument(
        "--table", action="store_true", help="treat the input as a curve CSV instead of JSON"
    )
    p_verify.add_argument(
        "--kind",
        choices=(Kind.DEPENDENT.value, Kind.INDEPENDENT.value),
        default=None,
        help="kind rule to check in --table mode",
    )
    p_verify.set_defaults(handler=cmd_verify)
    return parser


def _discard_stdout() -> None:
    # the unwritten rows stay buffered; pointing the descriptor at devnull
    # keeps the interpreter's flush at exit from failing a second time
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # no stream, one with no descriptor, or closed
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _write_rows(*args.handler(args))
        sys.stdout.flush()
        return EXIT_OK
    except PseudoFuzzyError as exc:
        message = f"error: {exc}"
        code = next(c for cls, c in _EXIT_CODES if isinstance(exc, cls))
    except OSError as exc:  # reads report DocumentError, so this is a write
        _discard_stdout()
        message, code = f"error: cannot write output: {exc}", EXIT_PARSE
    try:  # on one line, though a field name or a path may hold a newline
        print(message.replace("\n", "\\n"), file=sys.stderr)
    except OSError:  # the exit code stands if stderr cannot be written
        pass
    return code


def entry() -> None:
    # a process that runs one command: what is alive now lives to its end,
    # so the collector need not walk it again, in a collection or at exit
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
