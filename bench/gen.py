"""Seeded inputs for the three workloads.

Round r of a workload is drawn from its own generator, seeded from the
workload seed and r, so a round is the same whether or not earlier rounds
ran. A round holds each operation type once, in a seeded order: every
complete round carries the same mix, so medians do not drift with the
seed. Inputs are written as files into the run's work directory; the
program sees only those files and its argv.
"""

from __future__ import annotations

import json
import random
from decimal import Decimal
from pathlib import Path

import expect

KINDS = ("dependent", "independent")

# Bulk sizes: each cold bulk process takes about 1 s at the seed commit, of
# which the ~0.25 s interpreter and import cost is a minor share.
BULK_CURVE_N = 80001
BULK_TABLE_LEVELS = 50001
BULK_VERIFY_ROWS = 100001

# Library cross-check: a small level count, and a large one drawn per
# round, so op times spread over a range instead of one narrow peak whose
# median would jump whenever the machine's speed shifts; oracle grid 256.
LIB_SMALL_LEVELS = 11
LIB_LARGE_LEVELS = range(101, 2002, 100)
LIB_ORACLE_GRID = 256
LIB_QUERIES = 8  # lambda_of_result points per table


def shape(rng: random.Random, style: str, lo: float = -10.0, hi: float = 10.0):
    """A triangle (a, b, c); style picks generic, degenerate or wide-offset."""
    if style == "wide":  # like samples/cold_fever.json: wide, far from 0
        a = rng.uniform(50.0, 150.0)
        b = a + rng.uniform(2.0, 10.0)
        return a, b, b + rng.uniform(2.0, 10.0)
    a = rng.uniform(lo, lo + 0.6 * (hi - lo))
    left = rng.uniform(1e-3, (hi - a) / 2)
    right = rng.uniform(1e-3, (hi - a) / 2)
    if style == "left":
        left = 0.0
    elif style == "right":
        right = 0.0
    return a, a + left, a + left + right


def divisor(rng: random.Random, style: str):
    """A triangle whose support excludes 0 on either side."""
    a, b, c = shape(rng, style, 0.5, 8.0)
    return (a, b, c) if rng.random() < 0.5 else (-c, -b, -a)


def arg(value: float) -> str:
    """A float as a user types it on the command line: repr's digits, no exponent.

    argparse reads a negative number in exponent form, such as -7.7e-05,
    as an option flag and stops with a usage error (a defect of the CLI,
    left to a change of the program); -0.000077 is read as a number.
    """
    return format(Decimal(repr(value)), "f")


def doc(tri, kind: str) -> str:
    a, b, c = tri
    return json.dumps({"a": a, "b": b, "c": c, "kind": kind})


def curve_csv(tri, kind: str, n: int, rng: random.Random, tamper: bool):
    """Curve CSV text in the CLI's format, and the tampered x or None."""
    a, b, c = tri
    width = c - a
    xs = expect.grid(n, a - width, c + width)
    rows = [[x, expect.mu(a, b, c, x), expect.lam(a, b, c, kind, x)] for x in xs]
    tampered_x = None
    if tamper:
        inside = [i for i, (_, m, _) in enumerate(rows) if 0.2 < m < 0.8]
        i = rng.choice(inside)
        rows[i][2] += 0.05  # stays in [-1, 0], breaks either identity
        tampered_x = float(expect.fmt(rows[i][0]))
    text = "x,mu,lambda\n" + "".join(
        f"{expect.fmt(x)},{expect.fmt(m)},{expect.fmt(l)}\n" for x, m, l in rows
    )
    return text, tampered_x


class Inputs:
    """Writes a run's input files and builds its operations.

    An operation is a dict: name (its type), argv (after `python -m
    pseudofuzzy`), stdin (a file name or None), check (what the output
    must be), rows_in (curve rows the program reads).
    """

    def __init__(self, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self._files = 0

    def file(self, text: str, suffix: str) -> str:
        self._files += 1
        name = f"in{self._files}{suffix}"
        (self.workdir / name).write_text(text)
        return name

    def ptfn(self, tri, kind: str) -> str:
        return self.file(doc(tri, kind), ".json")

    def rng(self, workload: str, r: int) -> random.Random:
        return random.Random(f"{workload}:{self.seed}:{r}")

    # ---- cli_oneshot ----

    def oneshot_round(self, r: int) -> list[dict]:
        rng = self.rng("cli_oneshot", r)
        kind = KINDS[r % 2]
        style = ("generic", "left", "right", "wide")[rng.randrange(4)]
        p = shape(rng, style)
        q = shape(rng, "generic")
        pf, qf = self.ptfn(p, kind), self.ptfn(q, kind)
        a, b, c = p
        x = b if rng.random() < 0.2 else rng.uniform(a - (c - a) / 2, c + (c - a) / 2)
        m = rng.uniform(0.0, 1.0)
        l = m - 1.0 if rng.random() < 0.3 else -rng.uniform(0.0, 1.0)
        if 0.0 < abs(abs(m) + abs(l) - 1.0) < 1e-6:
            l = m - 1.0  # keep clear of the tolerance band edge
        alpha = rng.uniform(0.0, 1.0)
        beta = -rng.uniform(0.0, 1.0)
        d = divisor(rng, rng.choice(("generic", "left")))
        df = self.ptfn(d, kind)
        width = c - a
        clean, _ = curve_csv(p, kind, 101, rng, False)
        tampered, tampered_x = curve_csv(p, kind, 101, rng, True)
        cf, tf = self.file(clean, ".csv"), self.file(tampered, ".csv")
        ops = [
            op("eval", ["eval", pf, arg(x)], check=("eval", p, kind, x)),
            op("eval_stdin", ["eval", "-", arg(x)], stdin=pf, check=("eval", p, kind, x)),
            op("classify", ["classify", arg(m), arg(l)],
               check=("lines", [expect.classify(m, l)])),
            op("cut_mu", ["cut", pf, "mu", arg(alpha)],
               check=("cut", expect.alpha_cut(a, b, c, alpha))),
            op("cut_lambda", ["cut", pf, "lambda", arg(beta)],
               check=("cut", expect.beta_cut(a, b, c, kind, beta))),
            op("verify", ["verify", pf], check=("lines", ["ok"])),
            op("curve", ["curve", pf],
               check=("curve", p, kind, 101, a - width, c + width), rows_out=101),
            op("verify_clean", ["verify", cf, "--table", "--kind", kind],
               check=("verify_table", None), rows_in=101),
            op("verify_tampered", ["verify", tf, "--table", "--kind", kind],
               check=("verify_table", tampered_x), rows_in=101),
        ]
        for name in ("add", "sub", "mul"):
            ops.append(op(f"arith_{name}", ["arith", name, pf, qf],
                          check=("table", name, p, q, kind, 11), rows_out=11))
        ops.append(op("arith_div", ["arith", "div", pf, df],
                      check=("table", "div", p, d, kind, 11), rows_out=11))
        ops.append(self.invalid(rng, pf, kind))
        rng.shuffle(ops)
        return ops

    def invalid(self, rng: random.Random, pf: str, kind: str) -> dict:
        """One input the CLI must reject, with the README's exit code."""
        other = KINDS[1 - KINDS.index(kind)]
        cases = [
            (2, ["eval", "-", "1"], "{not json"),
            (2, ["eval", "-", "1"], '{"a": 0, "b": 1, "c": 2}'),
            (2, ["eval", "-", "1"], '{"a": 0, "b": 1, "c": 2, "kind": "both"}'),
            (2, ["eval", "-", "1"], f'{{"a": 2, "b": 1, "c": 0, "kind": "{kind}"}}'),
            (2, ["verify", pf, "--table"], None),
            (2, ["frobnicate"], None),
            (3, ["classify", "1.5", "-0.2"], None),
            (3, ["cut", pf, "mu", "1.5"], None),
            (3, ["curve", pf, "--n", "1"], None),
            (3, ["eval", pf, "nan"], None),
            (4, ["arith", "add", pf, self.ptfn((0.0, 1.0, 2.0), other)], None),
            (5, ["arith", "div", pf, self.ptfn((-1.0, 0.5, 2.0), kind)], None),
        ]
        code, argv, stdin = rng.choice(cases)
        stdin_file = self.file(stdin, ".txt") if stdin is not None else None
        return op("invalid", argv, stdin=stdin_file, check=("error", code))

    # ---- cli_bulk ----

    def bulk_pool(self) -> list[tuple[str, str, float | None]]:
        """Large curve CSVs for verify --table: clean and tampered, both kinds."""
        rng = self.rng("cli_bulk_pool", 0)
        pool = []
        for tamper in (False, True):
            for kind in KINDS:
                tri = shape(rng, rng.choice(("generic", "wide")))
                text, tampered_x = curve_csv(tri, kind, BULK_VERIFY_ROWS, rng, tamper)
                pool.append((self.file(text, ".csv"), kind, tampered_x))
        return pool

    def bulk_round(self, r: int, pool) -> list[dict]:
        rng = self.rng("cli_bulk", r)
        kind = KINDS[r % 2]
        p = shape(rng, rng.choice(("generic", "wide")))
        q = shape(rng, "generic")
        d = divisor(rng, "generic")
        pf, qf, df = self.ptfn(p, kind), self.ptfn(q, kind), self.ptfn(d, kind)
        a, b, c = p
        if rng.random() < 0.5:
            window, xmin, xmax = [], a - (c - a), c + (c - a)
        else:
            xmin, xmax = a - rng.uniform(0.0, 5.0), c + rng.uniform(0.0, 5.0)
            window = ["--xmin", arg(xmin), "--xmax", arg(xmax)]
        n, lv = str(BULK_CURVE_N), str(BULK_TABLE_LEVELS)
        clean = pool[r % 2]
        tampered = pool[2 + (r // 2) % 2]
        ops = [
            op("curve", ["curve", pf, "--n", n, *window],
               check=("curve", p, kind, BULK_CURVE_N, xmin, xmax), rows_out=BULK_CURVE_N),
            op("arith_mul", ["arith", "mul", pf, qf, "--levels", lv],
               check=("table", "mul", p, q, kind, BULK_TABLE_LEVELS), rows_out=BULK_TABLE_LEVELS),
            op("arith_div", ["arith", "div", pf, df, "--levels", lv],
               check=("table", "div", p, d, kind, BULK_TABLE_LEVELS), rows_out=BULK_TABLE_LEVELS),
        ]
        for name, (csv, ckind, tampered_x) in (("verify_clean", clean), ("verify_tampered", tampered)):
            ops.append(op(name, ["verify", csv, "--table", "--kind", ckind],
                          check=("verify_table", tampered_x), rows_in=BULK_VERIFY_ROWS))
        rng.shuffle(ops)
        return ops

    # ---- lib_crosscheck ----

    def lib_round(self, r: int) -> list[dict]:
        """Four same-kind operand pairs, one per operation, and a large level count.

        Scales follow the oracle's error bound: add/sub anywhere in
        [-10, 10]; mul on unit-scale operands; div with a unit-scale
        numerator and a divisor in +-[2, 4], clear of zero.
        """
        rng = self.rng("lib_crosscheck", r)
        kind = KINDS[r % 2]
        levels = rng.choice(LIB_LARGE_LEVELS)
        cases = []
        for name in ("add", "sub", "mul", "div"):
            style = rng.choice(("generic", "left", "right"))
            if name in ("add", "sub"):
                p, q = shape(rng, style), shape(rng, "generic")
            else:
                p = shape(rng, style, -1.0, 1.0)
                if name == "mul":
                    q = shape(rng, "generic", -1.0, 1.0)
                else:
                    q = shape(rng, "generic", 2.0, 4.0)
                    if rng.random() < 0.5:
                        q = (-q[2], -q[1], -q[0])
            cases.append({"name": name, "p": p, "q": q, "kind": kind, "levels": levels,
                          "u": [rng.random() for _ in range(2 * LIB_QUERIES)]})
        rng.shuffle(cases)
        return cases


def op(name, argv, stdin=None, check=None, rows_out=0, rows_in=0) -> dict:
    return {"name": name, "argv": argv, "stdin": stdin, "check": check,
            "rows_out": rows_out, "rows_in": rows_in}
