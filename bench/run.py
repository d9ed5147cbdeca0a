"""The pseudofuzzy benchmark: times the paper's operations and checks them.

    python3 bench/run.py --workload cli_oneshot --seed 1 --seconds 30 --trace 0

Run it from anywhere; it uses the checkout's own src/ through PYTHONPATH
and installs nothing. Workloads (see bench/baseline.json for why each):

- cli_oneshot: a seeded mix of cold `python -m pseudofuzzy` calls at
  default sizes, with a share of invalid inputs;
- cli_bulk: cold curve / arith mul|div writes and verify --table reads of
  tens of thousands of rows;
- lib_crosscheck (by hand only; not in BENCHMARK.json): in-process, in
  a few child processes in turn, each after warm-up; one op computes add,
  sub, mul and div cut tables at 11 levels and at a seeded 101-2001
  levels, runs the extension-principle oracle on each and queries
  lambda_of_result.

Each is a closed loop with one client: one process or call at a time,
the next only after the previous one ended. setup_s, the cold import of
the package, is timed in spawns spread over the whole run. Every output
is checked against bench/expect.py outside the timed region. With --trace 0 the last
stdout line holds the end-to-end metrics; with --trace 1 a traced
in-process replay gives the per-layer metrics. Details of each run go to
.bench_out/ at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import expect
import gen

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def load_spec():
    """Workload names and metric units, as BENCHMARK.json defines them.

    lib_crosscheck is added to the workloads: it runs by hand only, and
    BENCHMARK.json leaves it out because its figures follow the machine's
    speed, which shifts by 1.6-1.9x for minutes at a time on the shared
    VM it was built on, further than any bound could allow.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([w["name"] for w in spec["workloads"]] + ["lib_crosscheck"],
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


SETUP_SPAWNS = 15  # setup_s is the median of this many cold imports
IMPORT_SPAWNS = 5
OP_TIMEOUT_S = 60  # one CLI process
LIB_CHUNKS = 5  # lib_crosscheck runs in this many children, cold imports between
# rounds pre-generated for the traced in-process replay, which cycles them
TRACE_ROUNDS = {"cli_oneshot": 8, "cli_bulk": 2}
# largest share of traced wall time the per-op self times may miss
TRACE_GAP_LIMIT = 0.01


def child_timeout(seconds: float) -> float:
    """Time allowed to an in-process child that measures for `seconds`.

    It also warms up, finishes its last round and, when traced, makes
    allocation passes; twice the measured time plus a margin covers that
    on a machine running at half speed.
    """
    return 2 * seconds + 60


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    """The caller's environment with src/ first on PYTHONPATH.

    PYTHONDONTWRITEBYTECODE is dropped: like any user's, the package's
    bytecode is cached after the first call.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


class Spawner:
    """Starts one child at a time and reaps it with os.wait4 for its rusage."""

    def __init__(self, workdir: Path, seconds: float):
        self.workdir = workdir
        self.env = child_env()
        # children still running this long after the start are killed
        self.deadline = time.monotonic() + child_timeout(seconds)

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline

    def run(self, argv, stdin=None, timeout=OP_TIMEOUT_S):
        """Run `python argv` in the work directory.

        Returns (seconds from spawn to exit, exit code, stdout, stderr,
        peak RSS in MB); the exit code is None when the child timed out
        or outlived the run's deadline.
        """
        timeout = max(min(timeout, self.deadline - time.monotonic()), 0.0)
        out_path, err_path = self.workdir / "stdout.txt", self.workdir / "stderr.txt"
        stdin_path = self.workdir / stdin if stdin else os.devnull
        with open(stdin_path, "rb") as inp, open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdin=inp, stdout=out, stderr=err,
                                    cwd=self.workdir, env=self.env)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            timer.cancel()
            timer.join()
        killed = os.WIFSIGNALED(status)
        return (elapsed, None if killed else proc.returncode,
                out_path.read_text(errors="replace"), err_path.read_text(errors="replace"),
                usage.ru_maxrss / 1024)


def tail(values):
    """p90, or the highest percentile with at least ten samples beyond it.

    The second applies to runs of fewer than 110 ops. Higher than p90,
    the tail of a run of hundreds of ops falls on the few ops that met a
    burst of machine slowness and swings from run to run. Returns (value,
    percentile, sample count); with fewer than eleven samples the maximum
    stands in.
    """
    ordered = sorted(values)
    n = len(ordered)
    k = min((9 * n + 9) // 10, n - 10) - 1 if n >= 11 else n - 1  # rank ceil(0.9 n)
    return ordered[k], 100.0 * (k + 1) / n, n


def provenance() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "pseudofuzzy").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "package": f"{SRC} on PYTHONPATH, not installed",
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "loop": "closed, 1 client, at most one child alive",
    }


def setup(spawner: Spawner) -> None:
    """Check that the checkout's package imports, and cache its bytecode.

    The untimed spawns write __pycache__ bytecode, as any user's first
    call does.
    """
    probe = "import pseudofuzzy, pseudofuzzy.cli; print(pseudofuzzy.__file__)"
    _, code, out, err, _ = spawner.run(["-c", probe])
    if code != 0:
        raise BenchError(f"cannot import pseudofuzzy from {SRC}: {err.strip()[-300:]}")
    if not Path(out.strip()).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"pseudofuzzy imported from {out.strip()}, not from {SRC}")
    spawner.run(["-m", "pseudofuzzy", "classify", "0.5", "-0.5"])


class ColdImports:
    """setup_s: cold `import pseudofuzzy.cli` spawns spread over the run.

    The spawns are taken between ops in step with the measured time, so
    they see the same machine drift as the ops do; setup_s is their median.
    """

    def __init__(self, spawner: Spawner):
        self.spawner, self.times = spawner, []

    def due(self, fraction: float) -> None:
        """Spawn until the run's share `fraction` is done: one at 0, all at 1."""
        target = min(SETUP_SPAWNS, 1 + int(fraction * (SETUP_SPAWNS - 1)))
        while len(self.times) < target:
            self.times.append(self.spawner.run(["-c", "import pseudofuzzy.cli"])[0])

    def median(self) -> float:
        self.due(1.0)
        return statistics.median(self.times)


def cli_rounds(workload: str, inputs: gen.Inputs):
    """Round r of a CLI workload, for r = 0, 1, ..."""
    pool = inputs.bulk_pool() if workload == "cli_bulk" else None
    r = 0
    while True:
        yield inputs.bulk_round(r, pool) if pool else inputs.oneshot_round(r)
        r += 1


def measure_cli(workload, inputs, spawner, seconds):
    """Cold processes in whole rounds until `seconds` of them were timed."""
    records, measured, rounds = [], 0.0, 0
    imports = ColdImports(spawner)
    for ops in cli_rounds(workload, inputs):
        if measured >= seconds or spawner.expired():
            break
        for op in ops:
            imports.due(measured / seconds)
            elapsed, code, out, err, rss = spawner.run(["-m", "pseudofuzzy", *op["argv"]], op["stdin"])
            measured += elapsed
            problem = ("timed out" if code is None
                       else expect.check_op(op["check"], code, out, err))
            records.append({"name": op["name"], "argv": op["argv"], "seconds": elapsed,
                            "exit": code, "rss_mb": rss, "problem": problem,
                            "rows_out": expect.data_rows(op["check"]) if problem is None else 0,
                            "rows_in": op["rows_in"], "writes": op["check"][0] in ("curve", "table")})
        rounds += 1
    op_s = [rec["seconds"] for rec in records]
    setup_s = imports.median()
    writes = [rec for rec in records if rec["writes"]]
    reads = [rec for rec in records if rec["rows_in"]]
    value, pct, n = tail(op_s)
    metrics = {
        "op_ms.p50": 1e3 * statistics.median(op_s),
        "op_ms.tail": 1e3 * value,
        "rows_per_s": sum(rec["rows_out"] for rec in records) / measured,
        "write_rows_per_s": sum(rec["rows_out"] for rec in writes) / sum(rec["seconds"] for rec in writes),
        "read_rows_per_s": (sum(rec["rows_in"] for rec in reads if rec["problem"] is None)
                            / sum(rec["seconds"] for rec in reads)),
        "peak_rss_mb": max(rec["rss_mb"] for rec in records),
        "setup_s": setup_s,
    }
    failures = [f"{rec['name']} {rec['argv']}: {rec['problem']}" for rec in records if rec["problem"]]
    detail = {"rounds": rounds, "measured_s": measured, "cut_short": measured < seconds,
              "tail_percentile": pct, "ops": n, "import_s": imports.times, "records": records}
    return metrics, len(records), failures, detail


def run_child(spawner, job, rundir):
    """Run bench/inproc.py on a job; returns its JSON result and peak RSS."""
    job_path = rundir / "job.json"
    job_path.write_text(json.dumps(job))
    elapsed, code, out, err, rss = spawner.run([str(BENCH / "inproc.py"), str(job_path)],
                                               timeout=child_timeout(job["seconds"]))
    if code != 0:
        raise BenchError(f"in-process child failed (exit {code}) after {elapsed:.1f} s: "
                         f"{err.strip()[-500:]}")
    return json.loads(out.strip().splitlines()[-1]), rss


def measure_lib(spawner, seed, seconds, rundir):
    """LIB_CHUNKS children in turn, each measuring its share of `seconds`.

    Each child warms up on its own; rounds carry on where the last child
    stopped, and the cold imports of setup_s are taken between children.
    """
    imports = ColdImports(spawner)
    op_s, failures, chunks, rss = [], [], [], 0.0
    totals = dict.fromkeys(("rows", "measured_s", "write_rows", "write_s", "read_rows", "read_s"), 0)
    for i in range(LIB_CHUNKS):
        imports.due(i / LIB_CHUNKS)
        job = {"mode": "lib", "seed": seed, "seconds": seconds / LIB_CHUNKS, "trace": 0,
               "first_round": sum(chunk["rounds"] for chunk in chunks)}
        result, chunk_rss = run_child(spawner, job, rundir)
        rss = max(rss, chunk_rss)
        op_s += result.pop("op_s")
        failures += result["failures"]
        for key in totals:
            totals[key] += result[key]
        chunks.append(result)
    value, pct, n = tail(op_s)
    metrics = {
        "op_ms.p50": 1e3 * statistics.median(op_s),
        "op_ms.tail": 1e3 * value,
        "rows_per_s": totals["rows"] / totals["measured_s"],
        "write_rows_per_s": totals["write_rows"] / totals["write_s"],
        "read_rows_per_s": totals["read_rows"] / totals["read_s"],
        "peak_rss_mb": rss,
        "setup_s": imports.median(),
    }
    detail = dict(totals, chunks=chunks, tail_percentile=pct, ops=n, op_s=op_s,
                  import_s=imports.times)
    return metrics, n, failures, detail


def import_layers(spawner) -> dict:
    """Cold-spawn import figures: interpreter, package, numpy's share."""
    interp = statistics.median(spawner.run(["-c", "pass"])[0] for _ in range(IMPORT_SPAWNS))
    pkg = statistics.median(spawner.run(["-c", "import pseudofuzzy.cli"])[0]
                            for _ in range(IMPORT_SPAWNS))
    numpy_us = []
    for _ in range(IMPORT_SPAWNS):
        err = spawner.run(["-X", "importtime", "-c", "import pseudofuzzy.cli"])[3]
        cumulative = [int(line.split("|")[1]) for line in err.splitlines()
                      if line.startswith("import time:") and line.split("|")[-1].strip() == "numpy"]
        numpy_us.append(cumulative[0] if cumulative else 0)
    return {"import.interp_ms": 1e3 * interp, "import.pkg_ms": 1e3 * (pkg - interp),
            "import.numpy_ms": 1e-3 * statistics.median(numpy_us)}


def trace_run(workload, inputs, spawner, seed, seconds, rundir, names):
    """Per-layer metrics `names`: import.* from cold spawns, the rest traced."""
    job = {"seed": seed, "seconds": seconds, "trace": 1, "spans": str(rundir / "spans.jsonl"),
           "per_layer": [name for name in names if not name.startswith("import.")]}
    if workload == "lib_crosscheck":
        job["mode"] = "lib"
    else:
        rounds = cli_rounds(workload, inputs)
        job.update(mode="cli", rounds=[next(rounds) for _ in range(TRACE_ROUNDS[workload])])
    result, _ = run_child(spawner, job, rundir)
    metrics = dict(import_layers(spawner), **result.pop("per_layer"))
    failures = result["failures"]
    if not metrics["trace.self_time_gap_ratio"] <= TRACE_GAP_LIMIT:
        failures.append(f"per-op self times miss {metrics['trace.self_time_gap_ratio']:.3%} "
                        f"of the traced wall time (limit {TRACE_GAP_LIMIT:.0%})")
    return metrics, result["attempted"], failures, result


def main(argv=None) -> int:
    workloads, end_to_end, per_layer = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pseudofuzzy" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'pseudofuzzy'}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    rundir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = rundir / "work"
    workdir.mkdir(parents=True)
    spawner = Spawner(workdir, args.seconds)
    inputs = gen.Inputs(workdir, args.seed)
    try:
        setup(spawner)
        if args.trace:
            metrics, attempted, failures, detail = trace_run(
                args.workload, inputs, spawner, args.seed, args.seconds, rundir, per_layer)
            units = per_layer
        elif args.workload == "lib_crosscheck":
            metrics, attempted, failures, detail = measure_lib(spawner, args.seed, args.seconds, rundir)
            units = end_to_end
        else:
            metrics, attempted, failures, detail = measure_cli(
                args.workload, inputs, spawner, args.seconds)
            units = end_to_end
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        print(f"error: metrics measured {sorted(metrics)}, want {sorted(units)}", file=sys.stderr)
        return 3
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        "fail_ratio": len(failures) / attempted, "failures": failures[:20],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "detail": detail,
    }
    (rundir / "result.json").write_text(json.dumps(record, indent=1))
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} ops, {len(failures)} failed (fail_ratio {record['fail_ratio']:.4g})")
    for problem in failures[:5]:
        print(f"  FAILED {problem}")
    if "tail_percentile" in detail:
        print(f"  op_ms.tail is p{detail['tail_percentile']:.1f} of {detail['ops']} ops")
    if detail.get("cut_short"):
        print(f"  cut short by the run's deadline after {detail['measured_s']:.1f} s measured")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    print(f"  provenance {json.dumps(record['provenance'])}")
    print(f"  details in {rundir / 'result.json'}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": min(len(failures), attempted),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
