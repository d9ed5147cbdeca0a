"""Command-line interface: JSON numbers in, CSV curves and cut tables out.

A pseudo triangular fuzzy number is described by a JSON document with
exactly the fields a, b, c (numbers) and kind ("dependent" or
"independent"). Commands read the document from a file path or from
standard input when the path is "-", as bytes. Each command returns its
output as a head and rows, and main writes both with _write_rows, the only
code here that writes standard output.

Exit codes: 0 success, 2 parse/format/I-O error, 3 domain error, 4 kind
mismatch, 5 divisor straddles zero.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain, islice, repeat
from operator import add

from . import arith
from .core import (
    DEFAULT_EPS,
    _bad_row,
    _require_eps,
    classify_case,
    validate_pair,
)
from .errors import (
    DivisorStraddlesZero,
    DocumentError,
    KindMismatch,
    PseudoFuzzyError,
)
from .ptfn import (
    Kind,
    PseudoTfn,
    TriangleShape,
    _default_window,
    _first_violation,
    _sample,
    alpha_cut_mu,
    beta_cut_lambda,
    kind_violation,
    pair_at,
)

# no command calls these: kept because the benchmark's traced replay wraps them as cli.<name>
from .core import validate_set  # noqa: F401
from .ptfn import discretize, set_kind_violation  # noqa: F401

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

# rows per write: one write call per chunk, and the memory of one chunk
_CHUNK_ROWS = 4096
# a row of three values as _fmt writes them; "%.12g" % v is f"{v:.12g}"
_ROW = "%.12g,%.12g,%.12g\n"
_CHUNK = _ROW * _CHUNK_ROWS
# bytes of a CSV table decoded and split at a time
_BLOCK_BYTES = 1 << 16
# what a command returns, for main to write: a head and three-value rows
_Output = tuple[str, Iterable[Sequence[float]]]


def _fmt(value: float) -> str:
    # 12 significant digits, trailing zeros stripped; + 0.0 folds -0.0
    return f"{value + 0.0:.12g}"


def _write_rows(head: str, rows: Iterable[Sequence[float]]) -> None:
    """Write head, then each three-value row as a CSV line, _CHUNK_ROWS rows per write.

    Values are formatted as _fmt does, a chunk at a time. A chunk is
    computed, and so checked, in full before it is written: an error in
    the first chunk leaves stdout empty; a later one leaves the chunks
    before it written.
    """
    rows = iter(rows)
    while True:
        # + 0.0 folds -0.0, as in _fmt
        values = tuple(map(add, chain.from_iterable(islice(rows, _CHUNK_ROWS)), repeat(0.0)))
        count = len(values) // 3
        text = head + (_CHUNK if count == _CHUNK_ROWS else _ROW * count) % values
        if sys.stdout is None:  # started with descriptor 1 closed
            raise OSError("stdout is closed")
        sys.stdout.write(text)  # looked up per call: callers may swap sys.stdout
        if count < _CHUNK_ROWS:
            return
        head = ""


def _unique_fields(pairs: list[tuple[str, object]]) -> dict[str, object]:
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise DocumentError(f"duplicate field: {key}")
        doc[key] = value
    return doc


def parse_ptfn(text: str | bytes) -> PseudoTfn:
    """Parse a JSON PTFN document; unknown or missing fields are rejected."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DocumentError(f"input is not UTF-8: {exc}") from None
    try:
        # an integer too large for a float is read as inf, as 1e400 is: float() of it raises
        doc = json.loads(text, object_pairs_hook=_unique_fields,
                         parse_int=lambda s: int(s) if math.isfinite(float(s)) else float(s))
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DocumentError(f"malformed JSON: {exc}") from None
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
    except UnicodeError as exc:  # a lone surrogate in a swapped-in text stream fails to encode
        raise DocumentError(f"input is not UTF-8: {exc}") from None


def _load_ptfn(path: str) -> PseudoTfn:
    return parse_ptfn(_read_bytes(path))


def _blocks(data: bytes) -> Iterator[str]:
    """The text of UTF-8 data in blocks of about _BLOCK_BYTES, each ending just after a newline.

    Neither a UTF-8 sequence nor a "\\r\\n" pair straddles a block's end,
    so the blocks' splitlines() are the lines of the whole text.
    """
    start = 0
    while start < len(data):
        end = data.find(b"\n", start + _BLOCK_BYTES) + 1 or len(data)
        yield data[start:end].decode("utf-8")
        start = end


def _curve_rows(data: bytes) -> Iterator[tuple[float, float, float]]:
    """Yield the (x, mu, lam) rows of a curve CSV, checking each as it is read.

    Blank lines and lines starting with # are skipped, and line numbers
    count the lines kept, the header being line 1. Each row must hold three
    numbers and pass core's one row check, made inline; core._bad_row
    explains a row that fails it. The first defect raises DocumentError.
    """
    lines = chain.from_iterable(map(str.splitlines, _blocks(data)))
    lines = (line for line in lines if line and not line.startswith("#"))
    if next(lines, None) != _CURVE_HEADER:
        raise DocumentError(f"curve CSV must start with header '{_CURVE_HEADER}'")
    inf, prev = math.inf, -math.inf
    for i, line in enumerate(lines):
        parts = line.split(",")
        if len(parts) != 3:
            raise DocumentError(f"line {i + 2}: expected 3 comma-separated values")
        try:
            x, mu, lam = map(float, parts)
        except ValueError:
            raise DocumentError(f"line {i + 2}: non-numeric value") from None
        if not (-inf < x < inf and 0.0 <= mu <= 1.0 and -1.0 <= lam <= 0.0 and x > prev):
            try:
                _bad_row(i, prev, x, mu, lam)
            except PseudoFuzzyError as exc:
                raise DocumentError(f"invalid curve rows: {exc}") from None
        yield x, mu, lam
        prev = x
    if prev == -inf:
        raise DocumentError("curve CSV has no data rows")


def cmd_eval(args: argparse.Namespace) -> _Output:
    p = _load_ptfn(args.ptfn)
    pair = pair_at(p, args.x)
    return "", [(args.x, pair.mu, pair.lam)]


def cmd_curve(args: argparse.Namespace) -> _Output:
    p = _load_ptfn(args.ptfn)
    lo, hi = _default_window(p)
    xmin = lo if args.xmin is None else args.xmin
    xmax = hi if args.xmax is None else args.xmax
    return _CURVE_HEADER + "\n", _sample(p, args.n, xmin, xmax)


def cmd_classify(args: argparse.Namespace) -> _Output:
    pair = validate_pair(args.mu, args.lam)
    return classify_case(pair, args.eps).name + "\n", ()


def cmd_cut(args: argparse.Namespace) -> _Output:
    p = _load_ptfn(args.ptfn)
    if args.which == "mu":
        interval = alpha_cut_mu(p, args.level)
    else:
        interval = beta_cut_lambda(p, args.level)
    return f"{_fmt(interval.lo)},{_fmt(interval.hi)}\n", ()


def cmd_arith(args: argparse.Namespace) -> _Output:
    if args.ptfn1 == "-" and args.ptfn2 == "-":
        raise DocumentError("only one operand may come from stdin")
    p = _load_ptfn(args.ptfn1)
    q = _load_ptfn(args.ptfn2)
    if args.op in ("add", "sub"):
        rows = arith._cut_rows(getattr(arith, args.op)(p, q), args.levels)
    else:
        rows = arith._product_rows(args.op, p, q, args.levels)
    # each operation has checked that p and q share the kind of the result
    return f"# kind={p.kind.value}\nalpha,lo,hi\n", arith._nested_rows(rows)


def cmd_verify(args: argparse.Namespace) -> _Output:
    if args.table:
        if args.kind is None:
            raise DocumentError("--table requires --kind")
        rows = _curve_rows(_read_bytes(args.input))
        violation = _first_violation(rows, Kind(args.kind), args.eps)
        for _ in rows:  # the rest of the table is checked as well
            pass
        _require_eps(args.eps)  # after the table, whose defects take precedence
    else:
        p = _load_ptfn(args.input)
        violation = kind_violation(p, args.grid, args.eps)
    return ("ok" if violation is None else f"violation at x={_fmt(violation)}") + "\n", ()


class _Parser(argparse.ArgumentParser):
    """Takes "-7.7e-05" for a negative number, not an option; subparsers inherit it."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


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
    p_verify.add_argument("--grid", type=int, default=101, help="sample count (default 101)")
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
    sys.exit(main())


if __name__ == "__main__":
    entry()
