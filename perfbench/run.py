"""Benchmark runner for gekr.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The workloads are described in
README.md beside this file.  One process generates all load and runs the
operations one after another; the only parallel case is the
`verify --workers 2` operation.

--trace 0 measures the end-to-end metrics.  After set-up it runs passes
over the workload's fixed list of operations until the next pass would
end after S seconds (at least one pass).  CLI operations run as
`python -m gekr.cli` subprocesses.

--trace 1 measures the per-layer metrics.  It runs one traced
in-process pass of every workload, with the span wrappers of spans.py
installed (CLI operations replay their argv through gekr.cli.main), so
that every layer is measured in every traced run.  Each operation of the
named workload also runs untraced, right before or after its traced run;
trace.overhead_s is the traced time minus the untraced time summed over
these pairs.

Every output is checked against reference.json after the timed passes.
Any failed operation (wrong output, exception, timeout) makes `correct`
false and is left out of the operation times.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics;
lines before it report the environment, the tail percentile and its
sample count, the fail ratio and the reason for each failure.  Without a
gekr source tree in the working directory the runner exits with code 2
and prints no result; when no operation succeeds, with code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from math import comb
from pathlib import Path

WORKLOADS = ("mt-floor", "verify-cli", "bounds-cli", "search")
#: Operations must end this many seconds after this process starts; later
#: ones are recorded as timeouts.  Probes after them must end by
#: RUN_LIMIT_S, or the run fails, so that it always exits within 180 s.
DEADLINE_S = 120.0
RUN_LIMIT_S = 170.0
SETUP_PROBES = 2
START_PROBES = 3
#: Rows per sample_rows call when timing the sampler directly.
SAMPLE_ROWS = 300

T0 = time.perf_counter()


class OpTimeout(Exception):
    pass


class NoResult(Exception):
    """The run cannot give a result line; it exits with code 1."""


@dataclass
class Record:
    op: object
    seconds: float | None  # None: skipped because the run's deadline passed
    output: object = None
    status: str = "done"  # done, timeout, skipped, error, wrong
    error: str = ""


def _alarm(signum, frame):
    raise OpTimeout


def call_capped(fn, cap: float):
    """fn() in this process, interrupted by SIGALRM after cap seconds."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def child_env(root: Path) -> dict:
    path = os.environ.get("PYTHONPATH")
    src = str(root / "src")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def run_child(cmd: list[str], cap: float, env: dict) -> tuple[int, bytes]:
    """Run cmd in its own process group; on timeout kill the group, so that
    pool workers go too, and reap the child before raising."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=cap)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise OpTimeout from None
    return proc.returncode, out


def run_passes(ops, seconds: float, inprocess: bool, env: dict, on_op=None):
    """Passes over ops until another pass would end after `seconds` or an
    operation fails to return; at least one pass."""
    start = time.perf_counter()
    passes: list[float] = []
    records: list[Record] = []
    while True:
        pass_start = time.perf_counter()
        stop = False
        for op in ops:
            remaining = DEADLINE_S - (time.perf_counter() - T0)
            if remaining <= 0:
                records.append(Record(op, None, status="skipped"))
                stop = True
                continue
            if on_op is not None:
                on_op(op)
            cap = min(op.cap, remaining)
            t = time.perf_counter()
            try:
                if op.argv is not None and not inprocess:
                    out = run_child([sys.executable, "-m", "gekr.cli", *op.argv], cap, env)
                else:
                    out = call_capped(op.fn, cap)
                records.append(Record(op, time.perf_counter() - t, out))
            except OpTimeout:
                records.append(Record(op, time.perf_counter() - t, status="timeout"))
                stop = True
            except Exception as exc:  # a crashing operation is a failure, not the end of the run
                records.append(Record(op, time.perf_counter() - t, status="error",
                                      error=f"{type(exc).__name__}: {exc}"))
                stop = True
        passes.append(time.perf_counter() - pass_start)
        if stop or time.perf_counter() - start + passes[-1] > seconds:
            return passes, records


def tail(samples: list[float]) -> tuple[float, int, int]:
    """The highest whole percentile with at least ten samples above it
    (nearest rank), with that percentile and the count above it.  Below
    100 samples that percentile is under 90 and, over a mix of operation
    kinds, moves from one kind to another as the number of passes
    changes; the 90th percentile is reported instead, with the count
    above it (fewer than ten)."""
    ordered = sorted(samples)
    n = len(ordered)
    q = max(90, math.floor(100 * (1 - 10 / n)))
    rank = math.ceil(q / 100 * n)
    return ordered[rank - 1], q, n - rank


def check(records: list[Record]) -> dict:
    """Compare every output with its reference.  An operation that raised,
    timed out or was skipped has failed as much as one with a wrong
    output; its record is marked so that its time is left out too."""
    failures, changed = [], 0
    for rec in records:
        if rec.status == "done":
            outcome = rec.op.check(rec.output)
            changed += outcome.digest_changed
            if outcome.ok:
                continue
            rec.status, rec.error = "wrong", outcome.reason
        failures.append(f"{rec.status}: {rec.op.label} {rec.error}".rstrip())
    return {"attempted": len(records), "failed": len(failures),
            "digest_changed": changed, "failures": failures}


def probe(cmd: list[str], env: dict) -> tuple[float, bytes]:
    """Wall time and stdout of a short helper process."""
    t = time.perf_counter()
    proc = subprocess.run(cmd, env=env, check=True, capture_output=True,
                          timeout=RUN_LIMIT_S - (t - T0))
    return time.perf_counter() - t, proc.stdout


def median_probe_seconds(cmd: list[str], env: dict, count: int) -> float:
    return statistics.median(probe(cmd, env)[0] for _ in range(count))


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def end_to_end(args, ops, setup_first: float, env: dict) -> tuple[dict, dict, dict]:
    passes, records = run_passes(ops, args.seconds, inprocess=False, env=env)
    who = resource.RUSAGE_CHILDREN if ops[0].argv is not None else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024.0
    summary = check(records)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    setups = [setup_first] + [float(probe(cmd, env)[1]) for _ in range(SETUP_PROBES)]
    done = [r for r in records if r.status == "done"]
    if not done:
        raise NoResult("no operation succeeded; first failure: " + summary["failures"][0])
    durations = [r.seconds for r in done]
    tail_s, q, beyond = tail(durations)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(passes), "s"),
        "op_p50_s": (statistics.median(durations), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    by_label = {}
    for r in done:
        by_label.setdefault(r.op.label, []).append(r.seconds)
    info = {"passes": len(passes), "pass_s": passes, "ops_timed": len(durations),
            "tail_percentile": q, "tail_samples_beyond": beyond, "setup_samples": setups,
            "op_median_s": {k: statistics.median(v) for k, v in by_label.items()}}
    return metrics, summary, info


def _mt_step_bound(m: int) -> float:
    """Expected-step bound of Moser-Tardos with x = 1/(d+1) for every
    event: sum of x/(1-x) over C(m,3) triples, i.e. C(m,3)/d, where d
    counts the other triples sharing a row with a given one."""
    d = comb(m, 3) - comb(m - 3, 3) - 1
    return comb(m, 3) / d


def per_layer(args, ops_by_name: dict, env: dict) -> tuple[dict, dict, dict]:
    import spans
    from gekr import construct
    from gekr.core import ModelParams
    from workloads import GREEDY_CASES, MT_RUNGS

    rec = spans.Recorder()

    def traced_pass(name, ops):
        def on_op(op):
            rec.op = (name, op.key)

        rec.install()
        try:
            return run_passes(ops, 0, inprocess=True, env=env, on_op=on_op)
        finally:
            rec.uninstall()

    # Each operation of the named workload runs untraced and traced back to
    # back, the order alternating from one operation to the next, so that a
    # drift in host speed falls on both sides of the overhead alike.
    pairs, records, layer_records = [], [], []
    for i, op in enumerate(ops_by_name[args.workload]):
        runs = {}
        for traced in ((True, False) if i % 2 else (False, True)):
            runs[traced] = (traced_pass(args.workload, [op]) if traced
                            else run_passes([op], 0, inprocess=True, env=env))
        (u, u_recs), (t, t_recs) = runs[False], runs[True]
        pairs.append((u[0], t[0]))
        records += u_recs
        layer_records += t_recs
    traced_wall = {args.workload: sum(t for _, t in pairs)}
    for name, ops in ops_by_name.items():
        if name != args.workload:
            passes, recs = traced_pass(name, ops)
            traced_wall[name] = passes[0]
            layer_records += recs
    rec.install()
    try:
        rec.op = ("probe", "sample")
        for n, k in MT_RUNGS + GREEDY_CASES:
            construct.sample_rows(ModelParams.fixed_weight(n, k), SAMPLE_ROWS, args.seed)
    finally:
        rec.uninstall()
    summary, layer_summary = check(records), check(layer_records)
    for key in ("attempted", "failed", "digest_changed", "failures"):
        summary[key] += layer_summary[key]

    start_s = median_probe_seconds([sys.executable, "-c", "pass"], env, START_PROBES)
    import_s = median_probe_seconds([sys.executable, "-c", "import gekr.cli"], env,
                                    START_PROBES) - start_s

    def total(spans_, attr=None):
        if attr is None:
            return sum(s.seconds for s in spans_)
        return sum(s.attrs.get(attr, 0) for s in spans_)

    def mean_s(spans_):
        return ratio(total(spans_), len(spans_))

    sparse = rec.select("verify.find_deficient", "verify-cli", "verify.sparse")
    pool = rec.select("verify.find_deficient", "verify-cli", "verify.pool")
    dense = rec.select("verify.find_deficient", "verify-cli", "verify.dense")
    parse = rec.select("core.parse", "verify-cli")
    first = rec.select("verify.first")
    mt = rec.select("construct.mt")
    sample = rec.select("construct.sample", "probe")
    greedy = rec.select("construct.greedy")
    family = rec.select("exact.max_family")
    nu_exact = [s for s in rec.select("bounds.nu") if s.attrs.get("mode") == "exact-sum"]
    steps = total(mt, "steps")
    untraced_s = sum(u for u, _ in pairs)
    overhead_s = traced_wall[args.workload] - untraced_s
    m = {
        "cli.python_start_s": (start_s, "s"),
        "cli.import_s": (import_s, "s"),
        "core.parse_s": (total(parse), "s"),
        "core.parse_rows_per_s": (ratio(total(parse, "rows"), total(parse)), "1/s"),
        "verify.scan_s": (total(sparse), "s"),
        "verify.triples": (total(sparse, "triples"), "count"),
        "verify.triples_per_s": (ratio(total(sparse, "triples"), total(sparse)), "1/s"),
        "verify.hits": (total(sparse, "hits"), "count"),
        "verify.dense.scan_s": (total(dense), "s"),
        "verify.dense.hits": (total(dense, "hits"), "count"),
        "verify.pool.scan_s": (total(pool), "s"),
        "verify.pool.speedup": (ratio(total(sparse), total(pool)), "x"),
        "verify.first.calls": (len(first), "count"),
        "verify.first.s": (total(first), "s"),
        "verify.first.triples": (total(first, "triples"), "count"),
        "verify.first.triples_per_s": (ratio(total(first, "triples"), total(first)), "1/s"),
        "construct.mt.s": (total(mt), "s"),
        "construct.mt.self_s": (sum(s.self_s for s in mt), "s"),
        "construct.mt.steps": (steps, "count"),
        "construct.mt.rows_drawn": (total(mt, "m") + 3 * steps, "count"),
        "construct.mt.triples_per_step": (ratio(total(first, "triples"), steps), "triples/step"),
        "construct.mt.steps_over_bound": (
            ratio(steps, sum(_mt_step_bound(s.attrs["m"]) for s in mt if "m" in s.attrs)),
            "ratio"),
        "construct.sample.rows_per_s": (ratio(total(sample, "rows"), total(sample)), "1/s"),
        "construct.greedy.s": (total(greedy), "s"),
        "construct.greedy.rows": (total(greedy, "rows"), "count"),
        "construct.greedy.rows_per_s": (ratio(total(greedy, "rows"), total(greedy)), "1/s"),
        "construct.digest_changed": (layer_summary["digest_changed"], "count"),
        "exact.max_family.s": (total(family), "s"),
        "exact.max_family.size": (total(family, "size"), "count"),
        "exact.max_family.optimal": (total(family, "optimal"), "count"),
        "bounds.nu_exact500_s": (mean_s([s for s in nu_exact if s.attrs["n"] == 500]), "s"),
        "bounds.nu_exact10k_s": (mean_s([s for s in nu_exact if s.attrs["n"] == 10_000]), "s"),
        "bounds.zeta_s": (mean_s(rec.select("bounds.zeta")), "s"),
        "bounds.table_s": (total(rec.select("cli.main", "bounds-cli", "table")), "s"),
        "optimize.argmin_mu_s": (total(rec.select("optimize.argmin_mu")), "s"),
        "optimize.argmin_independent_s": (
            total(rec.select("optimize.argmin_independent")), "s"),
        "optimize.figure_s": (total(rec.select("optimize.figure_data")), "s"),
        "trace.overhead_s": (overhead_s, "s"),
    }
    info = {"untraced_pass_s": untraced_s, "traced_pass_s": traced_wall,
            "trace_overhead_share": ratio(overhead_s, untraced_s),
            "trace_overhead_pair_shares": [ratio(t - u, u) for u, t in pairs],
            "spans": len(rec.spans)}
    return m, summary, info


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "absent"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "gekr" / "__init__.py").is_file():
        print(f"no gekr source tree under {root}/src; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    env = child_env(root)
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        t = time.perf_counter()
        import workloads

        ref = workloads.load_reference()
        names = [args.workload] if not args.trace else list(WORKLOADS)
        ops_by_name = {name: workloads.setup(name, args.seed, ref, workdir) for name in names}
        setup_first = time.perf_counter() - t
        if args.setup_probe:
            print(setup_first)
            return 0
        if args.trace:
            metrics, summary, info = per_layer(args, ops_by_name, env)
        else:
            metrics, summary, info = end_to_end(args, ops_by_name[args.workload],
                                                setup_first, env)
    except NoResult as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    import numpy

    info.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        nproc=os.cpu_count(), python=platform.python_version(), numpy=numpy.__version__,
        scipy=version("scipy"), src_lines=src_lines(root),
        fail_ratio=ratio(summary["failed"], summary["attempted"]),
        digest_changed=summary["digest_changed"],
    )
    print("info " + json.dumps(info))
    for reason in summary["failures"]:
        print("failure " + reason)
    for name, (value, unit) in metrics.items():
        print(f"{name:32} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
