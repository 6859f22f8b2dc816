"""The four benchmark workloads: their inputs, operations and output checks.

Every input is derived from the workload seed and from the pools in
reference.json, which were captured from the program once (see
capture.py).  A pool entry carries the reference outputs of its inputs,
so every operation's output is checked against a value recorded before
any optimisation.

Importing this module imports numpy and the gekr package; run.py times
that import as part of set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import checker
from gekr import bounds, cli, construct, exact
from gekr.core import ModelParams

REFERENCE = Path(__file__).with_name("reference.json")

#: Moser-Tardos rungs (n, k); one seed of each per pass.
MT_RUNGS = ((50, 35), (54, 38), (56, 39))
#: Greedy cases (n, k); one seed of each per pass.
GREEDY_CASES = ((34, 24), (36, 25))
GREEDY_ATTEMPTS = 200
FAMILY_CASES = ((8, 4), (8, 5), (9, 7))
#: Verify inputs (m, n, k): a sparse file with a dozen deficient triples
#: among 10.6 M, and a dense one with about 60 000 among 2.6 M.
SPARSE = (400, 62, 43)
DENSE = (250, 20, 14)

#: Per-operation time caps in seconds, about four times the slowest
#: operation of each kind at the commit that defined the benchmark.
CAPS = {
    (50, 35): 10.0,
    (54, 38): 30.0,
    (56, 39): 60.0,
    "greedy": 20.0,
    "family": 20.0,
    "verify": 40.0,
    "cli": 20.0,
}


@dataclass(frozen=True)
class Outcome:
    ok: bool
    digest_changed: bool = False
    reason: str = ""


OK = Outcome(True)


@dataclass
class Op:
    """One operation of a workload.

    fn runs it in-process.  CLI operations also carry argv: the untraced
    pass runs them as `python -m gekr.cli *argv` subprocesses, while fn
    replays argv through gekr.cli.main for the traced pass.  key names the
    kind of operation, which the per-layer metrics select on.
    """

    label: str
    key: str
    cap: float
    fn: Callable[[], object]
    check: Callable[[object], Outcome]
    argv: list[str] | None = None


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fixed_weight_text(m: int, n: int, k: int, seed: int) -> str:
    """An m-row array file of uniform weight-k rows over n columns."""
    rng = np.random.default_rng(seed)
    ones = np.argsort(rng.random((m, n)), axis=1, kind="stable")[:, :k]
    chars = np.full((m, n + 1), ord("0"), dtype=np.uint8)
    np.put_along_axis(chars, ones, ord("1"), axis=1)
    chars[:, n] = ord("\n")
    return chars.tobytes().decode("ascii")


def mt_floor_rows(n: int, k: int) -> int:
    return bounds.floor_rows(bounds.nu(Fraction(k, n), n, mode="exact-sum"))


def run_cli_inprocess(argv: list[str]) -> tuple[int, bytes]:
    """gekr.cli.main on argv with stdout captured; looked up at call time
    so that the traced run's wrapper is the one called."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue().encode()


def _cli_op(label: str, key: str, argv: list[str], want: dict, cap: float = CAPS["cli"]) -> Op:
    def check(out: tuple[int, bytes]) -> Outcome:
        code, stdout = out
        if code != want["exit"]:
            return Outcome(False, reason=f"exit {code}, expected {want['exit']}")
        if sha256(stdout) != want["stdout_sha256"]:
            head = stdout.decode(errors="replace").splitlines()[:2]
            return Outcome(False, reason=f"stdout differs from reference: {head}")
        return OK

    return Op(label, key, cap, lambda: run_cli_inprocess(argv), check, argv)


def _mt_op(n: int, k: int, m: int, seed: int, want: dict) -> Op:
    params = ModelParams.fixed_weight(n, k)
    config = construct.ConstructionConfig(params=params, m=m, seed=seed)

    def check(result) -> Outcome:
        if not result.success:
            return Outcome(False, reason=f"gave up after {result.resamples_used} steps")
        rows = result.array.rows
        if checker.digest(rows, n) == want["sha256"]:
            return OK
        bad = checker.valid_fixed_weight(rows, n, k, m)
        return Outcome(False, reason=bad) if bad else Outcome(True, digest_changed=True)

    return Op(
        f"moser_tardos n={n} k={k} m={m} seed={seed}", "mt", CAPS[(n, k)],
        lambda: construct.moser_tardos(config), check,
    )


def _greedy_op(n: int, k: int, seed: int, want: dict) -> Op:
    params = ModelParams.fixed_weight(n, k)

    def check(array) -> Outcome:
        if array.m != want["rows"]:
            return Outcome(False, reason=f"{array.m} rows, expected {want['rows']}")
        if checker.digest(array.rows, n) == want["sha256"]:
            return OK
        bad = checker.valid_fixed_weight(array.rows, n, k)
        return Outcome(False, reason=bad) if bad else Outcome(True, digest_changed=True)

    return Op(
        f"greedy_extend n={n} k={k} seed={seed}", "greedy", CAPS["greedy"],
        lambda: construct.greedy_extend(params, seed, attempts_per_row=GREEDY_ATTEMPTS),
        check,
    )


def _family_op(ref: dict) -> Op:
    """The FAMILY_CASES searches as one operation.  Apart, each is a short
    operation whose time swings on a busy host more than a greedy run's,
    and as the middle kind of operation it would set op_p50_s."""
    def check(results) -> Outcome:
        for (n, k), result in zip(FAMILY_CASES, results):
            want = ref[f"{n},{k}"]
            got = (result.size, result.optimal)
            if got != (want["size"], want["optimal"]):
                return Outcome(False, reason=f"({n},{k}): (size, optimal) = {got}, "
                               f"expected {(want['size'], want['optimal'])}")
            rows = [sum(1 << c for c in cols) for cols in result.witness]
            bad = checker.valid_fixed_weight(rows, n, k, want["size"])
            if bad:
                return Outcome(False, reason=f"({n},{k}) witness: {bad}")
        return OK

    return Op("max_family " + " ".join(f"({n},{k})" for n, k in FAMILY_CASES), "family",
              CAPS["family"], lambda: [exact.max_family(n, k) for n, k in FAMILY_CASES], check)


def _mt_floor(rng: random.Random, ref: dict, workdir: Path) -> list[Op]:
    ops = []
    for n, k in MT_RUNGS:
        rung = ref["mt"][f"{n},{k}"]
        m = mt_floor_rows(n, k)
        if m != rung["m"]:
            raise RuntimeError(f"exact-sum floor at ({n},{k}) is {m}, reference {rung['m']}")
        seed = rng.choice(sorted(rung["seeds"], key=int))
        ops.append(_mt_op(n, k, m, int(seed), rung["seeds"][seed]))
    return ops


def _search(rng: random.Random, ref: dict, workdir: Path) -> list[Op]:
    ops = []
    for n, k in GREEDY_CASES:
        pool = ref["greedy"][f"{n},{k}"]["seeds"]
        seed = rng.choice(sorted(pool, key=int))
        ops.append(_greedy_op(n, k, int(seed), pool[seed]))
    ops.append(_family_op(ref["max_family"]))
    return ops


def verify_files(entry: dict, workdir: Path) -> dict[str, Path]:
    """Write the entry's sparse and dense files; their contents must hash
    to the reference, or the inputs are not the ones the outputs are for."""
    paths = {}
    for name, (m, n, k) in (("sparse", SPARSE), ("dense", DENSE)):
        text = fixed_weight_text(m, n, k, entry[name]["seed"])
        if sha256(text.encode()) != entry[name]["file_sha256"]:
            raise RuntimeError(f"generated {name} file differs from the reference input")
        paths[name] = workdir / f"{name}-{entry[name]['seed']}.txt"
        paths[name].write_text(text)
    return paths


def _verify_cli(rng: random.Random, ref: dict, workdir: Path) -> list[Op]:
    entry = rng.choice(ref["verify"])
    paths = verify_files(entry, workdir)
    sparse, dense = str(paths["sparse"]), str(paths["dense"])
    return [
        _cli_op("verify sparse", "verify.sparse", ["verify", sparse], entry["sparse"],
                CAPS["verify"]),
        _cli_op("verify sparse --workers 2", "verify.pool",
                ["verify", sparse, "--workers", "2"], entry["sparse"], CAPS["verify"]),
        _cli_op("verify dense --list-deficient", "verify.dense",
                ["verify", dense, "--list-deficient"], entry["dense"], CAPS["verify"]),
    ]


def _bounds_cli(rng: random.Random, ref: dict, workdir: Path) -> list[Op]:
    calls = rng.choice(ref["bounds"]["entries"]) + ref["bounds"]["fixed"]
    return [_cli_op(" ".join(c["argv"]), c["key"], c["argv"], c) for c in calls]


_PLANS = {
    "mt-floor": _mt_floor,
    "verify-cli": _verify_cli,
    "bounds-cli": _bounds_cli,
    "search": _search,
}


def setup(name: str, seed: int, ref: dict, workdir: Path) -> list[Op]:
    """The workload's operations for this seed, in a seed-shuffled order."""
    rng = random.Random(f"{name}/{seed}")
    ops = _PLANS[name](rng, ref, workdir)
    rng.shuffle(ops)
    return ops
