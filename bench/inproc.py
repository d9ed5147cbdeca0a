"""In-process half of the benchmark, run as a child of run.py.

    python bench/inproc.py JOB.json

JOB.json says which part to run:

- mode "lib": the lib_crosscheck workload. After a warm-up it computes
  seeded cut tables, runs the extension-principle oracle and queries
  lambda_of_result, then checks every result against bench/expect.py.
  With trace 1 it alternates untraced and traced passes over the same
  rounds and reports per-layer figures instead.
- mode "cli": the traced replay of a CLI workload. It calls cli.main(argv)
  on the generated inputs with stdout sent to a counting sink,
  alternating untraced and traced passes over the same operations.

The package comes from PYTHONPATH (the checkout's src/). The result is
one JSON line on stdout; spans go to the file the job names.
"""

from __future__ import annotations

import io
import json
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import expect
import gen
from spans import Recorder

import pseudofuzzy as pf
from pseudofuzzy import arith, cli, ptfn

_clock = time.perf_counter

SMALL, GRID = gen.LIB_SMALL_LEVELS, gen.LIB_ORACLE_GRID
OPCODES = {name: pf.BinaryOpCode(name) for name in ("add", "sub", "mul", "div")}
FUNCS = {"add": pf.add, "sub": pf.sub, "mul": pf.mul, "div": pf.div}


def _direct(name, fn, *args):
    return fn(*args)


# ---------------------------------------------------------------- library


def lib_case(case, call=_direct):
    """One cross-checked arithmetic result; returns the results and times."""
    name, levels = case["name"], case["levels"]
    p = pf.PseudoTfn(pf.TriangleShape(*case["p"]), pf.Kind(case["kind"]))
    q = pf.PseudoTfn(pf.TriangleShape(*case["q"]), pf.Kind(case["kind"]))
    fn = FUNCS[name]
    t0 = _clock()
    if name in ("add", "sub"):
        result = call(f"arith.{name}", fn, p, q)
        small = call("arith.cut_table", pf.cut_table, result, SMALL)
        large = call("arith.cut_table", pf.cut_table, result, levels)
    else:
        small = call(f"arith.{name}", fn, p, q, SMALL)
        large = call(f"arith.{name}", fn, p, q, levels)
    t1 = _clock()
    oracle = call("arith.extension_oracle", pf.extension_oracle, p, q, OPCODES[name], GRID, SMALL)
    t2 = _clock()
    lo, hi = small.rows[0][1].lo, small.rows[0][1].hi
    xs = [lo - 0.1 * (hi - lo) + u * 1.2 * (hi - lo) for u in case["u"]]
    half = len(xs) // 2
    t3 = _clock()
    pairs = [call(f"arith.lambda_of_result.l{SMALL}", pf.lambda_of_result, small, x)
             for x in xs[:half]]
    pairs += [call("arith.lambda_of_result.large", pf.lambda_of_result, large, x)
              for x in xs[half:]]
    t4 = _clock()
    return {"small": small, "large": large, "oracle": oracle, "xs": xs, "pairs": pairs,
            "write_s": t1 - t0, "oracle_s": t2 - t1, "read_s": t4 - t3,
            "op_s": (t1 - t0) + (t2 - t1) + (t4 - t3)}


def _rows(table):
    return [(alpha, iv.lo, iv.hi) for alpha, iv in table.rows]


def check_lib(case, res):
    """Independent checks of one lib result; None when right."""
    name, p, q, kind = case["name"], case["p"], case["q"], case["kind"]
    tables = ((res["small"], SMALL), (res["large"], case["levels"]))
    for table, count in tables:
        rows = _rows(table)
        if table.kind.value != kind or len(rows) != count:
            return f"{name}: table kind or size wrong at {count} levels"
        if not expect.table_nested(rows):
            return f"{name}: {count}-level table not nested"
        alphas = expect.levels(count)
        if [alpha for alpha, _, _ in rows] != alphas:
            return f"{name}: {count}-level table has the wrong levels"
        # endpoints of every SMALL row and of every tenth large row (and
        # the last): checking all of them would cost about half an op
        step = 1 if count == SMALL else 10
        for j in sorted({*range(0, count, step), count - 1}):
            _, lo, hi = rows[j]
            want = expect.op_cut(name, p, q, alphas[j])
            if not (expect.close(lo, want[0]) and expect.close(hi, want[1])):
                return f"{name}: row alpha={alphas[j]} is [{lo}, {hi}], want {want}"
    bound = 2.0 * max(p[2] - p[0], q[2] - q[0]) / GRID
    for (alpha, lo, hi), (oalpha, olo, ohi) in zip(_rows(res["small"]), _rows(res["oracle"])):
        if alpha != oalpha or abs(lo - olo) > bound or abs(hi - ohi) > bound:
            return f"{name}: oracle row alpha={alpha} off by more than {bound}"
    half = len(res["xs"]) // 2
    exact = None
    if name in ("add", "sub"):  # the result is triangular: mu is known exactly
        lo, hi = expect.op_cut(name, p, q, 0.0)
        exact = (lo, expect.op_cut(name, p, q, 1.0)[0], hi)
    for i, (x, pair) in enumerate(zip(res["xs"], res["pairs"])):
        rows = _rows(res["small"] if i < half else res["large"])
        lo, hi = expect.level_bracket(rows, x)
        want_lam = pair.mu - 1.0 if kind == "dependent" else -pair.mu
        if not (lo - expect.EPS <= pair.mu <= hi + expect.EPS and pair.lam == want_lam):
            return f"{name}: lambda_of_result at x={x!r} gave {pair}, levels [{lo}, {hi}]"
        if exact is not None and abs(pair.mu - expect.mu(*exact, x)) > expect.EPS:
            return f"{name}: lambda_of_result mu at x={x!r} is {pair.mu}, want {expect.mu(*exact, x)}"
    return None


def lib_rows(res):
    return len(res["small"].rows) + len(res["large"].rows) + len(res["oracle"].rows) + len(res["pairs"])


def lib_op(cases, call=_direct):
    """One library op: all four operations of a round, cross-checked after.

    Alone, add/sub take about half the time of mul/div, and a median over
    that two-humped mix would flip between the humps from run to run.
    """
    return [lib_case(case, call) for case in cases]


def check_op(cases, results):
    problems = [check_lib(case, res) for case, res in zip(cases, results)]
    return "; ".join(p for p in problems if p) or None


def run_lib(job):
    inputs = gen.Inputs(None, job["seed"])
    for r in range(2):  # warm-up: the first oracle call costs ~10x a warm one
        lib_op(inputs.lib_round(-1 - r))
    if job["trace"]:
        return trace_lib(job, inputs)
    ops, failures = [], []
    write_s = read_s = 0.0
    write_rows = read_rows = rows = 0
    measured, r = 0.0, job["first_round"]
    while measured < job["seconds"]:
        cases = inputs.lib_round(r)
        results = lib_op(cases)
        op_s = sum(res["op_s"] for res in results)
        ops.append(op_s)
        measured += op_s
        write_s += sum(res["write_s"] for res in results)
        read_s += sum(res["read_s"] for res in results)
        write_rows += sum(len(res["small"].rows) + len(res["large"].rows) for res in results)
        read_rows += sum(len(res["pairs"]) for res in results)
        problem = check_op(cases, results)
        if problem:
            failures.append(problem)
        else:
            rows += sum(lib_rows(res) for res in results)
        r += 1
    return {"op_s": ops, "failures": failures, "rounds": r - job["first_round"],
            "measured_s": measured,
            "rows": rows, "write_rows": write_rows, "write_s": write_s,
            "read_rows": read_rows, "read_s": read_s}


class OracleCounts:
    """Counts what extension_oracle samples and scans, while installed.

    It wraps the crisp operations in arith._ORACLE_OPS: `pairs` adds up
    the size of each result array (one element per sample pair), and
    `visits` the elements of every boolean mask the oracle indexes that
    array with (one per pair and level for a per-level scan). An oracle
    that does not go through _ORACLE_OPS leaves both at 0.
    """

    def __init__(self):
        self.pairs = self.visits = 0
        self._saved = None

    def install(self):
        ops, np = getattr(arith, "_ORACLE_OPS", None), getattr(arith, "np", None)
        if ops is None or np is None:
            return
        counts = self

        class Results(np.ndarray):
            def __getitem__(self, key):
                if isinstance(key, np.ndarray) and key.dtype == bool:
                    counts.visits += key.size
                return super().__getitem__(key)

        def counted(fn):
            def crisp(x, y):
                out = np.asarray(fn(x, y)).view(Results)
                counts.pairs += out.size
                return out
            return crisp

        self._saved = dict(ops)
        ops.update({code: counted(fn) for code, fn in self._saved.items()})

    def uninstall(self):
        if self._saved is not None:
            arith._ORACLE_OPS.update(self._saved)
            self._saved = None


def trace_lib(job, inputs):
    rec = Recorder()
    oracle = OracleCounts()
    untraced = traced = 0.0
    failures, walls, attempted, large = [], [], 0, 0
    start = _clock()
    while _clock() - start < job["seconds"]:
        cases = inputs.lib_round(attempted)
        large += cases[0]["levels"]
        t0 = _clock()
        results = lib_op(cases)
        untraced += _clock() - t0
        # results are dropped outside the timed regions, which would
        # otherwise differ in when they free the last round's tables
        del results
        rec.install(arith.CutTable, "__post_init__", "arith.CutTable")
        oracle.install()
        try:
            rec.op += 1
            t0 = _clock()
            results = rec.call("bench.op", lib_op, cases, rec.call)
            walls.append(_clock() - t0)
        finally:
            oracle.uninstall()
            rec.uninstall()
        traced += walls[-1]
        attempted += 1
        problem = check_op(cases, results)
        if problem:
            failures.append(problem)
        del results
    rec.write(job["spans"])
    m = dict.fromkeys(job["per_layer"], 0.0)
    own = rec.self_times()
    dur = _by_name(rec)
    us = 1e-3  # ns -> us
    # an op runs each operation once, at SMALL and its large level count,
    # and the oracle once per operation at SMALL: 4 * 3 tables
    for name in ("mul", "div"):
        m[f"arith.{name}.per_level_us"] = dur[f"arith.{name}"][1] * us / (attempted * SMALL + large)
    m["arith.CutTable.per_row_us"] = dur["arith.CutTable"][1] * us / (4 * (attempted * 2 * SMALL + large))
    calls, total = dur["arith.extension_oracle"]
    m["arith.extension_oracle_ms"] = total * 1e-6 / calls
    m["arith.extension_oracle.visits"] = oracle.visits / calls
    m["arith.extension_oracle.useful_ratio"] = oracle.pairs / max(oracle.visits, 1)
    for size in (f"l{SMALL}", "large"):
        calls, total = dur[f"arith.lambda_of_result.{size}"]
        m[f"arith.lambda_of_result.per_query_us.{size}"] = total * us / max(calls, 1)
    _layer_self(m, rec, own, walls)
    m["trace.overhead_ratio"] = traced / untraced
    tracemalloc.start()
    p = pf.PseudoTfn(pf.TriangleShape(-1.0, 0.0, 1.0), pf.Kind.DEPENDENT)
    q = pf.PseudoTfn(pf.TriangleShape(0.5, 1.0, 2.0), pf.Kind.DEPENDENT)
    m["arith.mul.peak_alloc_mb"] = _peak_mb(pf.mul, p, q, max(gen.LIB_LARGE_LEVELS))
    tracemalloc.stop()
    return {"per_layer": m, "failures": failures, "attempted": attempted}


# ---------------------------------------------------------------- CLI replay


class Sink(io.TextIOBase):
    """Write-only text stream that counts what the CLI writes."""

    def __init__(self):
        self.chars = 0
        self.lines = 0

    def writable(self):
        return True

    def write(self, text):
        self.chars += len(text)
        self.lines += text.count("\n")
        return len(text)


def replay(op, main):
    """Run one operation in-process; returns exit code, lines, bytes, seconds."""
    stdin = Path(op["stdin"]).read_text() if op["stdin"] else ""
    saved = sys.stdin, sys.stdout, sys.stderr
    out = Sink()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, Sink()
    t0 = _clock()
    try:
        code = main(op["argv"])
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        elapsed = _clock() - t0
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.lines, out.chars, elapsed


# Public names cli.py calls, wrapped where cli looks them up, and the
# layer each belongs to. pair_at inside ptfn is counted, not spanned.
CLI_NAMES = {
    "parse_ptfn": "cli.parse_ptfn",
    "validate_pair": "core.validate_pair",
    "classify_case": "core.classify_case",
    "validate_set": "core.validate_set",
    "pair_at": "ptfn.pair_at",
    "alpha_cut_mu": "ptfn.alpha_cut_mu",
    "beta_cut_lambda": "ptfn.beta_cut_lambda",
    "discretize": "ptfn.discretize",
    "kind_violation": "ptfn.kind_violation",
    "set_kind_violation": "ptfn.set_kind_violation",
}
ARITH_NAMES = ("add", "sub", "mul", "div", "cut_table")


def install_cli(rec):
    rec.install(ptfn, "pair_at", "ptfn.pair_at", counted=True)
    for attr, name in CLI_NAMES.items():
        rec.install(cli, attr, name)
    for attr in ARITH_NAMES:
        rec.install(arith, attr, f"arith.{attr}")
    rec.install(arith.CutTable, "__post_init__", "arith.CutTable")


def run_cli(job):
    rounds = job["rounds"]
    rec = Recorder()
    traced_main = rec.spanned("cli.main", cli.main)
    untraced = traced = 0.0
    failures, attempted, walls, done = [], [], [], 0
    start = _clock()
    while _clock() - start < job["seconds"] or done == 0:
        ops = rounds[done % len(rounds)]
        for op in ops:
            untraced += replay(op, cli.main)[3]
        install_cli(rec)
        try:
            for op in ops:
                rec.op += 1
                code, lines, chars, elapsed = replay(op, traced_main)
                traced += elapsed
                walls.append(elapsed)
                attempted.append((op, code, lines, chars))
        finally:
            rec.uninstall()
        done += 1
    rec.write(job["spans"])
    for op, code, lines, _ in attempted:
        want_code = op["check"][1] if op["check"][0] == "error" else 0
        want_lines = expect.out_lines(op["check"])
        if code != want_code or lines != want_lines:
            failures.append(f"{op['name']} {op['argv']}: exit {code}, {lines} lines; "
                            f"want exit {want_code}, {want_lines} lines")
    per_layer = cli_layers(rec, job["per_layer"], attempted, walls, untraced, traced, rounds)
    return {"per_layer": per_layer,
            "failures": failures, "attempted": len(attempted), "rounds": done}


def cli_layers(rec, names, attempted, walls, untraced, traced, rounds):
    m = dict.fromkeys(names, 0.0)
    own = rec.self_times()
    us = 1e-3
    main_self = [0] * len(attempted)  # self time of the cli.main span, per op
    by_op = [dict() for _ in attempted]  # span name -> total duration, per op
    for (name, op, _, start, end), self_ns in zip(rec.spans, own):
        if name == "cli.main":
            main_self[op] = self_ns
        by_op[op][name] = by_op[op].get(name, 0) + end - start
    write_ns = write_rows = read_ns = read_rows = 0
    sizes = {"ptfn.discretize": 0, "core.validate_set": 0, "ptfn.set_kind_violation": 0,
             "ptfn.kind_violation": 0, "arith.mul": 0, "arith.div": 0, "arith.CutTable": 0}
    spent = dict.fromkeys(sizes, 0)
    for i, (op, code, lines, chars) in enumerate(attempted):
        what = op["check"][0]
        m["cli.rows_out"] += expect.data_rows(op["check"])
        m["cli.bytes_out"] += chars
        if what in ("curve", "table"):
            write_ns += main_self[i]
            write_rows += expect.data_rows(op["check"])
        if what == "verify_table":
            read_ns += main_self[i]
            read_rows += op["rows_in"]
        size = {"ptfn.discretize": op["rows_out"] if what == "curve" else 0,
                "core.validate_set": op["rows_in"],
                "ptfn.set_kind_violation": op["rows_in"],
                "ptfn.kind_violation": 101 if op["name"] == "verify" else 0,
                "arith.mul": op["rows_out"] if op["name"] == "arith_mul" else 0,
                "arith.div": op["rows_out"] if op["name"] == "arith_div" else 0,
                "arith.CutTable": op["rows_out"] if what == "table" else 0}
        for name, count in size.items():
            if name in by_op[i]:
                sizes[name] += count
                spent[name] += by_op[i][name]
    n = len(attempted)
    m["cli.rows_out"] /= n
    m["cli.bytes_out"] /= n
    m["cli.main.self_ms"] = sum(main_self) * 1e-6 / n
    m["cli.write.per_row_us"] = write_ns * us / max(write_rows, 1)
    m["cli.read.per_row_us"] = read_ns * us / max(read_rows, 1)
    parse = [end - start for name, _, _, start, end in rec.spans if name == "cli.parse_ptfn"]
    m["cli.parse_ptfn_us"] = sum(parse) * us / max(len(parse), 1)
    m["core.validate_set.per_row_us"] = spent["core.validate_set"] * us / max(sizes["core.validate_set"], 1)
    m["ptfn.discretize.per_point_us"] = spent["ptfn.discretize"] * us / max(sizes["ptfn.discretize"], 1)
    calls, total = rec.counts["ptfn.pair_at"]
    m["ptfn.pair_at_us"] = total * us / max(calls, 1)
    m["ptfn.set_kind_violation.per_row_us"] = (
        spent["ptfn.set_kind_violation"] * us / max(sizes["ptfn.set_kind_violation"], 1))
    m["ptfn.kind_violation.per_point_us"] = (
        spent["ptfn.kind_violation"] * us / max(sizes["ptfn.kind_violation"], 1))
    m["arith.mul.per_level_us"] = spent["arith.mul"] * us / max(sizes["arith.mul"], 1)
    m["arith.div.per_level_us"] = spent["arith.div"] * us / max(sizes["arith.div"], 1)
    m["arith.CutTable.per_row_us"] = spent["arith.CutTable"] * us / max(sizes["arith.CutTable"], 1)
    _layer_self(m, rec, own, walls)
    m["trace.overhead_ratio"] = traced / untraced
    # allocation peaks of the largest curve and product in the workload
    ops = [op for ops in rounds for op in ops]
    curves = [op for op in ops if op["name"] == "curve"]
    muls = [op for op in ops if op["name"] == "arith_mul"]
    tracemalloc.start()
    if curves:
        op = max(curves, key=lambda o: o["rows_out"])
        _, tri, kind, count, xmin, xmax = op["check"]
        p = pf.PseudoTfn(pf.TriangleShape(*tri), pf.Kind(kind))
        m["ptfn.discretize.peak_alloc_mb"] = _peak_mb(pf.discretize, p, count, xmin, xmax)
    if muls:
        op = max(muls, key=lambda o: o["rows_out"])
        _, _, tp, tq, kind, count = op["check"]
        p = pf.PseudoTfn(pf.TriangleShape(*tp), pf.Kind(kind))
        q = pf.PseudoTfn(pf.TriangleShape(*tq), pf.Kind(kind))
        m["arith.mul.peak_alloc_mb"] = _peak_mb(pf.mul, p, q, count)
    tracemalloc.stop()
    return m


# ---------------------------------------------------------------- shared


def _by_name(rec):
    """Span name -> [calls, total ns]."""
    totals = defaultdict(lambda: [0, 0])
    for name, _, _, start, end in rec.spans:
        totals[name][0] += 1
        totals[name][1] += end - start
    return totals


def _layer_self(m, rec, own, walls):
    """Self time per layer per op, and the share of wall time it misses.

    walls[op] is the op's wall time, measured outside the traced root
    span. Summed over the op's spans, self times come to that wall time
    less the cost of entering and leaving the root; a span recorded under
    the wrong op or parent moves its time to another op, and the gap
    shows it.
    """
    sums = [0] * len(walls)
    for (name, op, _, _, _), self_ns in zip(rec.spans, own):
        key = f"layer.{name.split('.', 1)[0]}.self_ms"
        if key in m:
            m[key] += self_ns * 1e-6 / len(walls)
        sums[op] += self_ns
    m["trace.self_time_gap_ratio"] = self_time_gap(sums, walls)


def self_time_gap(sums, walls):
    """Share of the ops' total wall time (s) their self-time sums (ns) miss."""
    return sum(abs(wall * 1e9 - ns) for ns, wall in zip(sums, walls)) / (1e9 * sum(walls))


def _peak_mb(fn, *args):
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    result = fn(*args)
    peak = tracemalloc.get_traced_memory()[1] - base
    del result
    return peak / 2**20


def main():
    with open(sys.argv[1]) as handle:
        job = json.load(handle)
    result = run_lib(job) if job["mode"] == "lib" else run_cli(job)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
