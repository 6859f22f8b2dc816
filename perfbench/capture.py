"""Capture the reference outputs in reference.json from the current program.

Run from the repository root:

    python3 perfbench/capture.py [SECTION ...]

With no SECTION it captures every section, which takes a few minutes on
two cores; with sections (bounds, max_family, greedy, verify, mt) it
recaptures only those and keeps the others of the existing file.
Rerun it only when a change is meant to alter outputs, or to redraw a
seed pool (say so in CHANGES.md); the benchmark counts every difference
from these references as a failure, except a changed but valid
constructed array, which it counts in construct.digest_changed.

Every captured output is cross-checked with checker.py, which shares no
code with gekr.verify.

Seed pools.  A Moser-Tardos or greedy operation's cost depends on its
seed: at (56, 39) one seed takes 3 s and another 13 s.  A run holds only
a few such operations, so seeds drawn from all of them would make the
run-to-run spread of every timing far wider than any useful bound.  Each
pool therefore keeps the POOL_SIZE seeds, out of the first CANDIDATES,
whose work is nearest the median.  Work is counted, not timed, because
on a shared host the time of one seed swings by more than the spread
between seeds: for Moser-Tardos it is the number of triples its
deficient-triple searches scan, for greedy the number of candidates it
draws and of the accepted pairs they are tested against.  The workload
seed draws from these pools.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from math import comb
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import workloads as wl  # noqa: E402
from gekr import construct, exact  # noqa: E402
from gekr.core import ModelParams  # noqa: E402

CANDIDATES = {"mt": 64, "greedy": 128}
POOL_SIZE = 8
VERIFY_ENTRIES = 8
BOUNDS_ENTRIES = 16


def nearest_median(costs: dict[int, tuple[int, ...]]) -> list[int]:
    """The POOL_SIZE seeds whose largest relative distance from the median,
    over the components of their cost, is smallest."""
    mids = [statistics.median(c) for c in zip(*costs.values())]

    def distance(s: int) -> float:
        return max(abs(c - mid) / mid for c, mid in zip(costs[s], mids))

    return sorted(sorted(costs, key=lambda s: (distance(s), s))[:POOL_SIZE])


def mt_work(params: ModelParams, m: int, seed: int) -> tuple[int, int, str]:
    """Steps, triples scanned and array digest of Moser-Tardos with the
    program's resampling loop and sampler but checker.py's deficient-triple search."""
    scanned = 0

    def first(rows, n, patterns=None):
        nonlocal scanned
        bad = checker.first_deficient(rows, n)
        scanned += comb(len(rows), 3) if bad is None else checker.triple_rank(len(rows), *bad) + 1
        return bad

    real = construct.first_deficient_triple
    construct.first_deficient_triple = first
    try:
        result = construct.moser_tardos(construct.ConstructionConfig(params, m, seed))
    finally:
        construct.first_deficient_triple = real
    return result.resamples_used, scanned, checker.digest(result.array.rows, params.n)


def capture_mt() -> dict:
    out = {}
    for n, k in wl.MT_RUNGS:
        params = ModelParams.fixed_weight(n, k)
        m = wl.mt_floor_rows(n, k)
        emulated = {s: mt_work(params, m, s) for s in range(CANDIDATES["mt"])}
        pool = nearest_median({s: (w[1],) for s, w in emulated.items()})
        seeds = {}
        for s in pool:
            start = time.perf_counter()
            result = construct.moser_tardos(construct.ConstructionConfig(params, m, s))
            seconds = time.perf_counter() - start
            steps, triples, digest = emulated[s]
            assert result.resamples_used == steps, (n, k, s)
            assert checker.digest(result.array.rows, n) == digest, (n, k, s)
            assert checker.valid_fixed_weight(result.array.rows, n, k, m) is None
            seeds[str(s)] = {"steps": steps, "triples": triples, "sha256": digest,
                             "seconds": round(seconds, 3)}
            print(f"mt ({n},{k}) m={m} seed={s}: {steps} steps, {seconds:.2f} s", flush=True)
        out[f"{n},{k}"] = {"n": n, "k": k, "m": m, "seeds": seeds}
    return out


def greedy_work(params: ModelParams, seed: int) -> tuple[int, int, tuple[int, ...]]:
    """Candidates drawn, pair tests made and rows built by
    construct.greedy_extend, replayed with the program's sampler and
    counted; capture_greedy checks the rows against the program's own run.
    Drawing a candidate costs about as much as a thousand pair tests, so
    the pool is chosen on both counts."""
    full = (1 << params.n) - 1
    rows: list[int] = []
    pair_masks: list[tuple[int, int, int]] = []
    attempts = tests = 0
    while True:
        for attempt in range(wl.GREEDY_ATTEMPTS):
            attempts += 1
            cand = construct._sample_row(params, construct._row_rng(seed, len(rows), attempt))
            not_c = cand ^ full
            for i, (both, only_a, only_b) in enumerate(pair_masks):
                if (not both & cand or not both & not_c
                        or not only_a & cand or not only_b & cand):
                    tests += i + 1
                    break
            else:
                tests += len(pair_masks)
                break
        else:
            return attempts, tests, tuple(rows)
        pair_masks += [(prev & cand, prev & not_c, (prev ^ full) & cand) for prev in rows]
        rows.append(cand)


def capture_greedy() -> dict:
    out = {}
    for n, k in wl.GREEDY_CASES:
        params = ModelParams.fixed_weight(n, k)
        replayed = {s: greedy_work(params, s) for s in range(CANDIDATES["greedy"])}
        pool = nearest_median({s: w[:2] for s, w in replayed.items()})
        seeds = {}
        for s in pool:
            start = time.perf_counter()
            array = construct.greedy_extend(params, s, attempts_per_row=wl.GREEDY_ATTEMPTS)
            seconds = time.perf_counter() - start
            attempts, tests, rows = replayed[s]
            assert array.rows == rows, (n, k, s)
            assert checker.valid_fixed_weight(array.rows, n, k) is None
            seeds[str(s)] = {"rows": array.m, "attempts": attempts, "tests": tests,
                             "sha256": checker.digest(array.rows, n),
                             "seconds": round(seconds, 3)}
            print(f"greedy ({n},{k}) seed={s}: {array.m} rows, {attempts} candidates, "
                  f"{tests} pair tests, {seconds:.2f} s", flush=True)
        out[f"{n},{k}"] = {"attempts_per_row": wl.GREEDY_ATTEMPTS, "seeds": seeds}
    return out


def capture_family() -> dict:
    out = {}
    for n, k in wl.FAMILY_CASES:
        result = exact.max_family(n, k)
        rows = [sum(1 << c for c in cols) for cols in result.witness]
        assert checker.valid_fixed_weight(rows, n, k, result.size) is None
        out[f"{n},{k}"] = {"size": result.size, "optimal": result.optimal}
    return out


def run_cli(argv: list[str]) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "gekr.cli", *argv], capture_output=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    return proc.returncode, proc.stdout


def capture_verify(workdir: Path) -> list[dict]:
    entries = []
    for idx in range(VERIFY_ENTRIES):
        entry = {}
        for name, (m, n, k), base in (("sparse", wl.SPARSE, 100), ("dense", wl.DENSE, 200)):
            text = wl.fixed_weight_text(m, n, k, base + idx)
            rows = [int(line[::-1], 2) for line in text.split()]
            count, first = checker.count_deficient(rows, n)
            entry[name] = {"seed": base + idx, "file_sha256": wl.sha256(text.encode()),
                           "deficient": count, "first": list(first) if first else None}
        paths = wl.verify_files(entry, workdir)
        code, out = run_cli(["verify", str(paths["sparse"])])
        assert run_cli(["verify", str(paths["sparse"]), "--workers", "2"]) == (code, out)
        assert out.decode().split()[1] == str(entry["sparse"]["deficient"]), out
        entry["sparse"].update(exit=code, stdout_sha256=wl.sha256(out))
        code, out = run_cli(["verify", str(paths["dense"]), "--list-deficient"])
        lines = out.decode().splitlines()
        assert lines[0].split()[1] == str(entry["dense"]["deficient"])
        assert [int(x) for x in lines[1].split()[:3]] == entry["dense"]["first"]
        assert len(lines) == 1 + entry["dense"]["deficient"]
        entry["dense"].update(exit=code, stdout_sha256=wl.sha256(out))
        print(f"verify entry {idx}: sparse {entry['sparse']['deficient']}, "
              f"dense {entry['dense']['deficient']} deficient", flush=True)
        entries.append(entry)
    return entries


def _cli_reference(key: str, argv: list[str]) -> dict:
    code, out = wl.run_cli_inprocess(argv)
    assert code == 0, (argv, code)
    ref = {"key": key, "argv": argv, "exit": code, "stdout_sha256": wl.sha256(out)}
    if argv[0] == "bound":
        ref["log10"] = out.decode().splitlines()[1].split("= ")[1]
    return ref


def capture_bounds() -> dict:
    rng = random.Random(2005)
    entries = []
    for _ in range(BOUNDS_ENTRIES):
        def density() -> str:
            return f"{rng.uniform(0.15, 0.85):.4f}"

        calls = [
            ("bound.independent", ["bound", "--model", "independent", "--alpha", density(),
                                   "--n", str(rng.choice([1000, 10_000, 100_000, 1_000_000]))]),
            ("bound.fixed-asymptotic", ["bound", "--model", "fixed-asymptotic", "--alpha",
                                        density(), "--n",
                                        str(rng.choice([1000, 10_000, 100_000, 1_000_000]))]),
            ("bound.exact500", ["bound", "--model", "fixed-exact", "--k",
                                str(rng.randint(150, 450)), "--n", "500"]),
            ("bound.exact10k", ["bound", "--model", "fixed-exact", "--k",
                                str(rng.randint(3000, 9000)), "--n", "10000"]),
            ("optimize.independent", ["optimize", "--model", "independent", "--n",
                                      str(rng.choice([1000, 10_000, 100_000]))]),
        ]
        entries.append([_cli_reference(key, argv) for key, argv in calls])
    fixed = [
        ("table", ["table", "--model", "independent"]),
        ("table", ["table", "--model", "fixed-asymptotic"]),
        ("optimize.fixed", ["optimize", "--model", "fixed"]),
    ] + [("figure", ["figure", str(f)]) for f in (1, 2, 3, 4)]
    return {"entries": entries, "fixed": [_cli_reference(k, a) for k, a in fixed]}


def main(sections: list[str]) -> None:
    capture = {
        "bounds": capture_bounds,
        "max_family": capture_family,
        "greedy": capture_greedy,
        "verify": capture_verify,
        "mt": capture_mt,
    }
    unknown = set(sections) - set(capture)
    if unknown:
        sys.exit(f"unknown sections {sorted(unknown)}; choose from {sorted(capture)}")
    ref = wl.load_reference() if sections else {}
    workdir = ROOT / ".perfbench_work" / "capture"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, fn in capture.items():
            if not sections or name in sections:
                ref[name] = fn(workdir) if name == "verify" else fn()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wl.REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {wl.REFERENCE}")


if __name__ == "__main__":
    main(sys.argv[1:])
