"""Command-line interface: JSON numbers in, CSV curves and cut tables out.

A pseudo triangular fuzzy number is described by a JSON document with
exactly the fields a, b, c (numbers) and kind ("dependent" or
"independent"). Commands read the document from a file path or from
standard input when the path is "-".

Exit codes: 0 success, 2 parse/format/I-O error, 3 domain error, 4 kind
mismatch, 5 divisor straddles zero.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Optional, Sequence

from . import arith
from .core import DEFAULT_EPS, classify_case, validate_pair, validate_set
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
    alpha_cut_mu,
    beta_cut_lambda,
    discretize,
    kind_violation,
    pair_at,
    set_kind_violation,
)

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


def _fmt(value: float) -> str:
    # 12 significant digits, trailing zeros stripped; + 0.0 folds -0.0
    return f"{value + 0.0:.12g}"


def _row(*values: float) -> None:
    print(",".join([_fmt(value) for value in values]))


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
        doc = json.loads(text, object_pairs_hook=_unique_fields)
    except json.JSONDecodeError as exc:
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


def _read_text(path: str) -> str:
    try:
        if path == "-":
            # bytes, decoded strictly: the text layer may use surrogateescape
            stream = getattr(sys.stdin, "buffer", None)
            return sys.stdin.read() if stream is None else stream.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DocumentError(f"input is not UTF-8: {exc}") from None


def _load_ptfn(path: str) -> PseudoTfn:
    return parse_ptfn(_read_text(path))


def _parse_curve_csv(text: str):
    rows = []
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines or lines[0] != "x,mu,lambda":
        raise DocumentError("curve CSV must start with header 'x,mu,lambda'")
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise DocumentError(f"line {lineno}: expected 3 comma-separated values")
        try:
            rows.append(tuple(float(part) for part in parts))
        except ValueError:
            raise DocumentError(f"line {lineno}: non-numeric value") from None
    if not rows:
        raise DocumentError("curve CSV has no data rows")
    try:
        return validate_set(rows)
    except PseudoFuzzyError as exc:
        raise DocumentError(f"invalid curve rows: {exc}") from None


def cmd_eval(args: argparse.Namespace) -> int:
    p = _load_ptfn(args.ptfn)
    pair = pair_at(p, args.x)
    _row(args.x, pair.mu, pair.lam)
    return EXIT_OK


def cmd_curve(args: argparse.Namespace) -> int:
    p = _load_ptfn(args.ptfn)
    lo, hi = _default_window(p)
    xmin = lo if args.xmin is None else args.xmin
    xmax = hi if args.xmax is None else args.xmax
    dset = discretize(p, args.n, xmin, xmax)
    print("x,mu,lambda")
    for element in dset:
        _row(element.x, element.pair.mu, element.pair.lam)
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    pair = validate_pair(args.mu, args.lam)
    print(classify_case(pair, args.eps).name)
    return EXIT_OK


def cmd_cut(args: argparse.Namespace) -> int:
    p = _load_ptfn(args.ptfn)
    if args.which == "mu":
        interval = alpha_cut_mu(p, args.level)
    else:
        interval = beta_cut_lambda(p, args.level)
    _row(interval.lo, interval.hi)
    return EXIT_OK


def cmd_arith(args: argparse.Namespace) -> int:
    if args.ptfn1 == "-" and args.ptfn2 == "-":
        raise DocumentError("only one operand may come from stdin")
    p = _load_ptfn(args.ptfn1)
    q = _load_ptfn(args.ptfn2)
    op = getattr(arith, args.op)
    if args.op in ("add", "sub"):
        table = arith.cut_table(op(p, q), args.levels)
    else:
        table = op(p, q, args.levels)
    print(f"# kind={table.kind.value}")
    print("alpha,lo,hi")
    for alpha, interval in table.rows:
        _row(alpha, interval.lo, interval.hi)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    if args.table:
        if args.kind is None:
            raise DocumentError("--table requires --kind")
        dset = _parse_curve_csv(_read_text(args.input))
        violation = set_kind_violation(dset, Kind(args.kind), args.eps)
    else:
        p = _load_ptfn(args.input)
        violation = kind_violation(p, args.grid, args.eps)
    if violation is None:
        print("ok")
    else:
        print(f"violation at x={_fmt(violation)}")
    return EXIT_OK


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
    except (OSError, ValueError):  # a stream with no descriptor, or closed
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except PseudoFuzzyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))
    except OSError as exc:  # reads report DocumentError, so this is a write
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        _discard_stdout()
        return EXIT_PARSE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
