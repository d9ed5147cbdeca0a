"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The paper's explicit formulas are checked here too, as the independent
oracle for the lam and beta-cut values the package derives from mu.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines. Every tolerance is pinned here, not configurable.
"""

import math
import random
import time
from pathlib import Path

import numpy as np
from conftest import run_cli

from pseudofuzzy import (
    DEFAULT_EPS,
    BinaryOpCode,
    CaseLabel,
    Kind,
    MembershipPair,
    PseudoTfn,
    TriangleShape,
    add,
    alpha_cut_mu,
    beta_cut_lambda,
    classify_case,
    cut_table,
    div,
    extension_oracle,
    lambda_at,
    magnitude_sum,
    mu_at,
    mul,
    pair_at,
    scale,
    sub,
)

DATA = Path(__file__).parent / "data"


def _report(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num}] {label}: {status}")
    assert not failures, f"criterion {num} ({label}): {len(failures)} violations, first: {failures[0]}"


def _sorted_shape(rng, lo=-10.0, hi=10.0):
    while True:
        a, b, c = sorted(rng.uniform(lo, hi) for _ in range(3))
        if a < b < c:
            return TriangleShape(a, b, c)


def _conditioned_shape(rng, lo=-10.0, hi=10.0, min_side=1e-3):
    # sides bounded away from zero so 1e-9 endpoint checks are meaningful
    a = rng.uniform(lo, hi)
    left = rng.uniform(min_side, 5.0)
    right = rng.uniform(min_side, 5.0)
    return TriangleShape(a, a + left, a + left + right)


def _window_samples(shape, count):
    width = shape.c - shape.a
    xlo, xhi = shape.a - width, shape.c + width
    return [xlo + i * (xhi - xlo) / (count - 1) for i in range(count)]


def _identity_suite(kind, defect, seed):
    rng = random.Random(seed)
    started = time.perf_counter()
    failures = []
    for _ in range(1000):
        p = PseudoTfn(_sorted_shape(rng), kind)
        for x in _window_samples(p.shape, 100):
            d = defect(p, x)
            if d > 1e-12:
                failures.append((p.shape, x, d))
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5s")
    return failures


def test_criterion_1_dependent_identity():
    failures = _identity_suite(
        Kind.DEPENDENT, lambda p, x: abs(lambda_at(p, x) - (mu_at(p, x) - 1.0)), seed=101
    )
    _report(1, "dependent identity lam = mu - 1", failures)


def test_criterion_2_independent_identity():
    failures = _identity_suite(
        Kind.INDEPENDENT, lambda p, x: abs(lambda_at(p, x) + mu_at(p, x)), seed=202
    )
    _report(2, "independent identity lam = -mu", failures)


def test_criterion_3_case_partition():
    rng = random.Random(303)
    failures = []
    for _ in range(10_000):
        pair = MembershipPair(rng.uniform(0.0, 1.0), -rng.uniform(0.0, 1.0))
        label = classify_case(pair)
        s = magnitude_sum(pair)
        if abs(s - 1.0) <= DEFAULT_EPS:
            expected = CaseLabel.B
        elif s < 1.0:
            expected = CaseLabel.A
        else:
            expected = CaseLabel.C
        if label is not expected or label not in (CaseLabel.A, CaseLabel.B, CaseLabel.C):
            failures.append((pair, s, label, expected))
    for _ in range(20):
        p = PseudoTfn(_sorted_shape(rng), Kind.DEPENDENT)
        for x in _window_samples(p.shape, 100):
            if classify_case(pair_at(p, x)) is not CaseLabel.B:
                failures.append((p.shape, x, "dependent sample not case B"))
    _report(3, "case partition and dependent case B", failures)


def test_criterion_4_cut_coherence():
    rng = random.Random(404)
    failures = []
    for _ in range(1000):
        shape = _conditioned_shape(rng)
        p = PseudoTfn(shape, Kind.DEPENDENT)
        for _ in range(50):
            a1, a2 = sorted((rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)))
            outer, inner = alpha_cut_mu(p, a1), alpha_cut_mu(p, a2)
            if inner.lo < outer.lo - 1e-12 or inner.hi > outer.hi + 1e-12:
                failures.append((shape, a1, a2, "nesting"))
            for alpha, cut in ((a1, outer), (a2, inner)):
                if abs(mu_at(p, cut.lo) - alpha) > 1e-9 or abs(mu_at(p, cut.hi) - alpha) > 1e-9:
                    failures.append((shape, alpha, "endpoint mu"))
            beta = -rng.uniform(0.0, 1.0)
            got = beta_cut_lambda(p, beta)
            want = alpha_cut_mu(p, beta + 1.0)
            if abs(got.lo - want.lo) > 1e-9 or abs(got.hi - want.hi) > 1e-9:
                failures.append((shape, beta, "beta correspondence"))
    _report(4, "cut nesting, endpoint levels, beta correspondence", failures)


def _paper_lambda(p, x):
    # the paper's piecewise negative membership, branch by branch
    a, b, c = p.a, p.b, p.c
    if p.kind is Kind.DEPENDENT:
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


def _paper_beta_cut(p, beta):
    # dependent: [b + beta(b-a), b - beta(c-b)]
    # independent: [a - beta(b-a), c + beta(c-b)]
    a, b, c = p.a, p.b, p.c
    if p.kind is Kind.DEPENDENT:
        return b + beta * (b - a), b - beta * (c - b)
    return a - beta * (b - a), c + beta * (c - b)


def _with_degenerate_sides(shape):
    a, c = shape.a, shape.c
    return shape, TriangleShape(a, a, c), TriangleShape(a, c, c)


def _criterion_4_draws():
    # the shapes and beta levels criterion 4 draws from its seed
    rng = random.Random(404)
    for _ in range(1000):
        shape = _conditioned_shape(rng)
        betas = []
        for _ in range(50):
            rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)  # its two alpha levels
            betas.append(-rng.uniform(0.0, 1.0))
        yield shape, betas


def test_explicit_lambda_formulas():
    failures = []
    for kind, seed in ((Kind.DEPENDENT, 101), (Kind.INDEPENDENT, 202)):
        rng = random.Random(seed)  # criteria 1 and 2's shapes
        for _ in range(1000):
            for shape in _with_degenerate_sides(_sorted_shape(rng)):
                p = PseudoTfn(shape, kind)
                for x in _window_samples(shape, 100) + [shape.a, shape.b, shape.c]:
                    want = _paper_lambda(p, x)
                    for got in (lambda_at(p, x), pair_at(p, x).lam):
                        if abs(got - want) > 1e-12:
                            failures.append((shape, kind, x, got, want))
    assert not failures, f"{len(failures)} violations, first: {failures[0]}"


def test_explicit_beta_cut_formulas():
    failures = []
    for base, betas in _criterion_4_draws():
        for shape in _with_degenerate_sides(base):
            for kind in Kind:
                p = PseudoTfn(shape, kind)
                for beta in [-1.0, 0.0] + betas:
                    got = beta_cut_lambda(p, beta)
                    lo, hi = _paper_beta_cut(p, beta)
                    if abs(got.lo - lo) > 1e-9 or abs(got.hi - hi) > 1e-9:
                        failures.append((shape, kind, beta, got, (lo, hi)))
    assert not failures, f"{len(failures)} violations, first: {failures[0]}"


def test_independent_lambda_is_positive_zero_where_mu_is_zero():
    p = PseudoTfn.independent(0, 1, 2)
    for x in (-5.0, 0.0, 2.0, 7.0):
        for lam in (lambda_at(p, x), pair_at(p, x).lam):
            assert math.copysign(1.0, lam) == 1.0, (x, lam)


def _scale_brute_force(p, k, grid, levels):
    xs = np.unique(np.append(np.linspace(p.a, p.c, grid + 1), p.b))
    mus = np.array([mu_at(p, float(x)) for x in xs])
    zs = k * xs
    rows = []
    for j in range(levels):
        reached = zs[mus >= j / (levels - 1)]
        rows.append((float(reached.min()), float(reached.max())))
    return rows


def _table_gap(fast, oracle):
    gap = 0.0
    for (_, fi), (_, oi) in zip(fast.rows, oracle.rows):
        gap = max(gap, abs(fi.lo - oi.lo), abs(fi.hi - oi.hi))
    return gap


def test_criterion_5_oracle_equivalence():
    rng = random.Random(505)
    grid, levels = 256, 11
    started = time.perf_counter()
    failures = []
    for _ in range(100):
        kind = rng.choice((Kind.DEPENDENT, Kind.INDEPENDENT))

        # add/sub over the full universe scale
        p = PseudoTfn(_sorted_shape(rng), kind)
        q = PseudoTfn(_sorted_shape(rng), kind)
        bound = 2.0 * max(p.shape.width, q.shape.width) / grid
        for op, fast in ((BinaryOpCode.ADD, add(p, q)), (BinaryOpCode.SUB, sub(p, q))):
            gap = _table_gap(cut_table(fast, levels), extension_oracle(p, q, op, grid, levels))
            if gap > bound:
                failures.append((op, p.shape, q.shape, gap, bound))

        # scale against a unary sweep; |k| <= 2 keeps the sampling error
        # within the per-operand bound
        k = rng.choice((-1.0, 1.0)) * rng.uniform(0.25, 2.0)
        bound = 2.0 * p.shape.width / grid
        fast_rows = cut_table(scale(p, k), levels).rows
        for (_, fi), (olo, ohi) in zip(fast_rows, _scale_brute_force(p, k, grid, levels)):
            if max(abs(fi.lo - olo), abs(fi.hi - ohi)) > bound:
                failures.append(("scale", p.shape, k))

        # mul/div on unit-scale operands, divisor clear of zero, so the
        # product rule's |partner| factor stays within the same bound
        u = PseudoTfn(_sorted_shape(rng, -1.0, 1.0), kind)
        v = PseudoTfn(_sorted_shape(rng, -1.0, 1.0), kind)
        bound = 2.0 * max(u.shape.width, v.shape.width) / grid
        gap = _table_gap(mul(u, v, levels), extension_oracle(u, v, BinaryOpCode.MUL, grid, levels))
        if gap > bound:
            failures.append(("mul", u.shape, v.shape, gap, bound))

        w = PseudoTfn(_sorted_shape(rng, 2.0, 4.0), kind)
        bound = 2.0 * max(u.shape.width, w.shape.width) / grid
        gap = _table_gap(div(u, w, levels), extension_oracle(u, w, BinaryOpCode.DIV, grid, levels))
        if gap > bound:
            failures.append(("div", u.shape, w.shape, gap, bound))
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 60s")
    _report(5, "closed forms match the extension-principle oracle", failures)


def _curve_rows(kind):
    doc = '{"a":1,"b":2,"c":3,"kind":"%s"}' % kind
    result = run_cli(["curve", "-", "--n", "401", "--xmin", "0", "--xmax", "4"], doc)
    assert result.returncode == 0
    lines = result.stdout.decode().splitlines()
    assert lines[0] == "x,mu,lambda"
    return [tuple(float(part) for part in line.split(",")) for line in lines[1:]]


def test_criterion_6_curve_profile_reproduction():
    failures = []
    dep_rows = _curve_rows("dependent")
    if len(dep_rows) != 401:
        failures.append("dependent row count")
    for x, mu, lam in dep_rows:
        if (x <= 1.0 or x >= 3.0) and lam != -1.0:
            failures.append(("dependent outer branch", x, lam))
        if x == 2.0 and (mu, lam) != (1.0, 0.0):
            failures.append(("dependent peak", mu, lam))
    if not any(x == 2.0 for x, _, _ in dep_rows):
        failures.append("dependent grid misses the peak")
    ind_rows = _curve_rows("independent")
    for x, mu, lam in ind_rows:
        if (x <= 1.0 or x >= 3.0) and lam != 0.0:
            failures.append(("independent outer branch", x, lam))
        if x == 2.0 and (mu, lam) != (1.0, -1.0):
            failures.append(("independent peak", mu, lam))
    _report(6, "curve output reproduces both membership profiles", failures)


def test_criterion_7_cli_contract():
    dep = str(DATA / "dep_0_1_2.json")
    dep2 = str(DATA / "dep_1_2_3.json")
    ind = str(DATA / "ind_0_1_2.json")
    straddle = str(DATA / "straddle.json")
    failures = []

    expectations = [
        (["eval", dep, "1"], None, b"1,1,0\n"),
        (
            ["curve", dep, "--n", "5", "--xmin", "0", "--xmax", "2"],
            None,
            b"x,mu,lambda\n0,0,-1\n0.5,0.5,-0.5\n1,1,0\n1.5,0.5,-0.5\n2,0,-1\n",
        ),
        (["classify", "0.9", "-0.8"], None, b"C\n"),
        (["cut", dep, "mu", "0.5"], None, b"0.5,1.5\n"),
        (
            ["arith", "add", dep, dep2, "--levels", "3"],
            None,
            b"# kind=dependent\nalpha,lo,hi\n0,1,5\n0.5,2,4\n1,3,3\n",
        ),
        (["verify", dep], None, b"ok\n"),
    ]
    for argv, stdin, expected in expectations:
        result = run_cli(argv, stdin)
        if result.returncode != 0 or result.stdout != expected:
            failures.append((argv, result.returncode, result.stdout))

    error_expectations = [
        (["eval", "-", "1"], "{broken", 2),
        (["cut", dep, "mu", "1.5"], None, 3),
        (["arith", "add", dep, ind], None, 4),
        (["arith", "div", dep2, straddle], None, 5),
    ]
    for argv, stdin, code in error_expectations:
        result = run_cli(argv, stdin)
        if result.returncode != code or result.stdout != b"":
            failures.append((argv, result.returncode, code))

    rerun_argv = ["curve", dep2, "--n", "33"]
    if run_cli(rerun_argv).stdout != run_cli(rerun_argv).stdout:
        failures.append("reruns not byte-identical")

    _report(7, "CLI golden outputs and exit codes", failures)
