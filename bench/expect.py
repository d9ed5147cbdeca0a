"""Independent expectations for the benchmark's output checks.

Everything here is computed from the paper's explicit piecewise formulas
and plain interval arithmetic. Nothing is imported from the package, so a
defect in the package cannot hide by agreeing with itself.
"""

from __future__ import annotations

EPS = 1e-9  # the package's absolute tolerance on grades


def fmt(value: float) -> str:
    """The CLI's number format: 12 significant digits, -0.0 folded."""
    return f"{value + 0.0:.12g}"


def close(got: float, want: float, eps: float = EPS) -> bool:
    """Grades are compared absolutely; x and endpoints relative to scale."""
    return abs(got - want) <= eps * max(1.0, abs(want))


def mu(a: float, b: float, c: float, x: float) -> float:
    if x < a or x > c:
        return 0.0
    if x == b:
        return 1.0
    if x < b:
        return (x - a) / (b - a)
    return (c - x) / (c - b)


def lam(a: float, b: float, c: float, kind: str, x: float) -> float:
    """The paper's explicit lambda branches, not derived from mu."""
    if kind == "dependent":
        if x < a or x > c:
            return -1.0
        if x == b:
            return 0.0
        if x < b:
            return (x - b) / (b - a)
        return (b - x) / (c - b)
    if x < a or x > c:
        return 0.0
    if x == b:
        return -1.0
    if x < b:
        return (a - x) / (b - a)
    return (x - c) / (c - b)


def grid(n: int, xmin: float, xmax: float) -> list[float]:
    span = xmax - xmin
    return [xmax if i == n - 1 else xmin + (i * span) / (n - 1) for i in range(n)]


def alpha_cut(a: float, b: float, c: float, alpha: float) -> tuple[float, float]:
    if alpha == 1.0:
        return b, b
    return a + alpha * (b - a), c - alpha * (c - b)


def beta_cut(a: float, b: float, c: float, kind: str, beta: float) -> tuple[float, float]:
    return alpha_cut(a, b, c, beta + 1.0 if kind == "dependent" else -beta)


def levels(count: int) -> list[float]:
    return [j / (count - 1) for j in range(count)]


def _imul(u, v):
    products = (u[0] * v[0], u[0] * v[1], u[1] * v[0], u[1] * v[1])
    return min(products), max(products)


def op_cut(op: str, p, q, alpha: float) -> tuple[float, float]:
    """Cut of p (op) q at level alpha; p and q are (a, b, c) triples."""
    u = alpha_cut(*p, alpha)
    v = alpha_cut(*q, alpha)
    if op == "add":
        return u[0] + v[0], u[1] + v[1]
    if op == "sub":
        return u[0] - v[1], u[1] - v[0]
    if op == "mul":
        return _imul(u, v)
    return _imul(u, (1.0 / v[1], 1.0 / v[0]))


def classify(m: float, l: float, eps: float = EPS) -> str:
    s = abs(m) + abs(l)
    if abs(s - 1.0) <= eps:
        return "B"
    return "A" if s < 1.0 else "C"


# ---- checks of CLI output; each returns None when the output is right ----


def _floats(line: str, count: int):
    parts = line.split(",")
    if len(parts) != count:
        return None
    try:
        return [float(part) for part in parts]
    except ValueError:
        return None


def check_lines(lines: list[str], want: list[str]):
    return None if lines == want else f"expected {want!r}, got {lines[:3]!r}"


def check_eval(lines, shape, kind, x):
    row = _floats(lines[0], 3) if len(lines) == 1 else None
    if row is None:
        return f"bad eval output {lines[:2]!r}"
    a, b, c = shape
    want = (x, mu(a, b, c, x), lam(a, b, c, kind, x))
    if not all(close(g, w) for g, w in zip(row, want)):
        return f"eval at x={x!r}: got {row}, want {want}"
    return None


def check_curve(lines, shape, kind, n, xmin, xmax):
    if len(lines) != n + 1 or lines[0] != "x,mu,lambda":
        return f"curve: expected header and {n} rows, got {len(lines)} lines"
    a, b, c = shape
    for i, x in enumerate(grid(n, xmin, xmax)):
        row = _floats(lines[i + 1], 3)
        if row is None:
            return f"curve row {i}: unparsable {lines[i + 1]!r}"
        # grades at the exact grid point: the printed x is rounded, and next
        # to a foot the rounding can cross it
        if not (close(row[0], x) and close(row[1], mu(a, b, c, x))
                and close(row[2], lam(a, b, c, kind, x))):
            return f"curve row {i}: got {row}, want x={x!r}"
    return None


def check_cut(lines, want):
    row = _floats(lines[0], 2) if len(lines) == 1 else None
    if row is None or not (close(row[0], want[0]) and close(row[1], want[1])):
        return f"cut: got {lines[:2]!r}, want {want}"
    return None


def check_table(lines, op, p, q, kind, count):
    if len(lines) != count + 2 or lines[0] != f"# kind={kind}" or lines[1] != "alpha,lo,hi":
        return f"{op} table: bad header or {len(lines)} lines for {count} levels"
    for j, alpha in enumerate(levels(count)):
        row = _floats(lines[j + 2], 3)
        want = op_cut(op, p, q, alpha)
        if row is None or not (
            close(row[0], alpha) and close(row[1], want[0]) and close(row[2], want[1])
        ):
            return f"{op} row {j}: got {lines[j + 2]!r}, want {alpha!r},{want}"
    return None


def check_verify_table(lines, tampered_x):
    if tampered_x is None:
        return check_lines(lines, ["ok"])
    if len(lines) == 1 and lines[0].startswith("violation at x="):
        got = float(lines[0][len("violation at x="):])
        if close(got, tampered_x):
            return None
    return f"expected violation at x={tampered_x!r}, got {lines[:2]!r}"


def table_nested(rows, slack=EPS) -> bool:
    """Rows (alpha, lo, hi): levels increase from 0 to 1, cuts shrink."""
    if rows[0][0] != 0.0 or rows[-1][0] != 1.0:
        return False
    for (a0, lo0, hi0), (a1, lo1, hi1) in zip(rows, rows[1:]):
        scale = slack * max(1.0, abs(lo0), abs(hi0))
        if not (a1 > a0 and lo1 >= lo0 - scale and hi1 <= hi0 + scale and lo1 <= hi1):
            return False
    return True


def level_bracket(rows, x):
    """Levels (lo, hi) between which mu(x) of a tabulated result must lie.

    Found by a linear scan of the nested cuts: mu(x) is at least the
    highest level whose cut holds x, and below the next level.
    """
    if not rows[0][1] <= x <= rows[0][2]:
        return 0.0, 0.0
    if rows[-1][1] <= x <= rows[-1][2]:
        return 1.0, 1.0
    k = 0
    while rows[k + 1][1] <= x <= rows[k + 1][2]:
        k += 1
    return rows[k][0], rows[k + 1][0]


def check_op(check, code: int, out: str, err: str):
    """Check one CLI operation's exit code and output; None when right.

    check is the tuple an operation carries (see gen.op): its first item
    names the kind of output, the rest are the inputs to recompute it.
    """
    what, *spec = check
    if what == "error":
        if code != spec[0]:
            return f"exit code {code}, want {spec[0]}"
        if out or "Traceback" in err:
            return "error exit wrote stdout or a traceback"
        return None
    if code != 0:
        return f"exit code {code}: {err.strip()[-200:]}"
    lines = out.splitlines()
    if what == "lines":
        return check_lines(lines, spec[0])
    if what == "eval":
        return check_eval(lines, *spec)
    if what == "cut":
        return check_cut(lines, spec[0])
    if what == "curve":
        return check_curve(lines, *spec)
    if what == "table":
        return check_table(lines, *spec)
    if what == "verify_table":
        return check_verify_table(lines, spec[0])
    raise ValueError(f"unknown check {what!r}")


def data_rows(check) -> int:
    """Data rows an operation prints when it succeeds."""
    what, *spec = check
    if what == "error":
        return 0
    if what == "curve":
        return spec[2]
    if what == "table":
        return spec[4]
    return 1


def out_lines(check) -> int:
    """Lines on stdout: data rows plus the CSV header and kind comment."""
    return data_rows(check) + {"curve": 1, "table": 2}.get(check[0], 0)
