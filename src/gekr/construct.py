"""Randomized construction of GEKR arrays.

Moser-Tardos always resamples the rows of the lexicographically first
deficient triple.  The rule fixes every array bit for bit; what a step
costs is up to the search.  verify.TripleScan makes one forward pass
over the comb(m, 3) triples, spread over the run, and after each
resample tests again only the triples before its cursor that hold one
of the three new rows, so a step costs O(m^2) tests after that pass.
Greedy extension tests CHUNK accepted pairs per big-int operation.
Every strategy tests the patterns of core.gekr_patterns: fixed-weight
rows with 3r > 2n always share a column, so the 111 lane is left out
and each slot is 3(n + 1) bits instead of 4(n + 1); a triple is
deficient under the three patterns exactly when it is under all four.

Reproducibility rule: every row draw comes from its own PCG64 stream,
keyed as SeedSequence(seed, spawn_key=(row_index, epoch)).  A row's
epoch starts at 0 and increments each time that row is resampled (or,
for rejection sampling, each time the whole array is redrawn; greedy
extension uses the attempt number).  Identical (seed, n, weight,
strategy) therefore reproduce identical arrays bit for bit, regardless
of how many triples the verifier inspected along the way.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .core import ArrayMatrix, ModelParams, PatternSet, Strategy, gekr_patterns
from .verify import Lanes, TripleScan, first_deficient_triple, scan_bytes, triples_through

#: A progress record goes to the "gekr" logger, at INFO, every this many
#: resampling steps.
PROGRESS_EVERY = 10_000
#: Accepted pairs per tape of greedy extension.
CHUNK = 64

log = logging.getLogger("gekr")

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class ConstructionConfig:
    """m is the row count; None is allowed only for greedy, with no cap."""

    params: ModelParams
    m: int | None
    seed: int
    strategy: Strategy = Strategy.MOSER_TARDOS
    max_resamples: int = 1_000_000
    attempts_per_row: int = 1_000

    def __post_init__(self) -> None:
        if self.m is None and self.strategy is not Strategy.GREEDY:
            raise ValueError("--m is required for this strategy")
        if self.m is not None and self.m < 0:
            raise ValueError(f"row count must be non-negative, got {self.m}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.max_resamples < 1:
            raise ValueError("max_resamples must be positive")
        if self.attempts_per_row < 1:
            raise ValueError("attempts_per_row must be positive")
        # The scan's size limit, before any row is drawn; at least 3 rows,
        # so that n is bounded for greedy without a cap too.
        scan_bytes(max(self.m or 0, 3), self.params.n, _patterns(self.params))


@dataclass(frozen=True)
class ConstructionResult:
    """array is None exactly when the strategy gave up; resamples_used
    counts resampling steps (deficient triples fixed, full redraws, or
    rejected greedy candidates, depending on the strategy);
    triples_checked counts the triple tests of Moser-Tardos and
    rejection (greedy reports 0)."""

    array: ArrayMatrix | None
    resamples_used: int
    triples_checked: int = 0

    @property
    def success(self) -> bool:
        return self.array is not None


def _row_rng(seed: int, row_index: int, epoch: int) -> np.random.Generator:
    # numpy is imported here and in _sample_row, on the first row drawn,
    # so that the bounds, the scans and the CLI start without it.
    import numpy as np

    ss = np.random.SeedSequence(seed, spawn_key=(row_index, epoch))
    return np.random.Generator(np.random.PCG64(ss))


def _sample_row(params: ModelParams, rng: np.random.Generator) -> int:
    """One packed row from the model distribution."""
    import numpy as np

    n, r = params.n, params.r
    if r is not None:
        # Partial Fisher-Yates on idx = range(n): after r swaps the prefix
        # idx[:r] is a uniform r-subset, using exactly r bounded integer
        # draws.  moved keeps only the entries of idx that swaps changed.
        moved: dict[int, int] = {}
        row = 0
        for j, t in enumerate(rng.integers(np.arange(r), n).tolist()):
            row |= 1 << moved.get(t, t)
            moved[t] = moved.get(j, j)
        return row
    bits = rng.random(n) < float(params.alpha)
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def _patterns(params: ModelParams) -> PatternSet:
    """The GEKR patterns that rows of the model can miss."""
    return gekr_patterns(params.n, params.r)


def sample_rows(params: ModelParams, m: int, seed: int, epoch: int = 0) -> ArrayMatrix:
    """Draw m rows at the given epoch (fresh arrays use epoch 0)."""
    rows = tuple(
        _sample_row(params, _row_rng(seed, i, epoch)) for i in range(m)
    )
    return ArrayMatrix(n=params.n, rows=rows)


def _progress(step: int, start: float) -> None:
    if step and step % PROGRESS_EVERY == 0:
        rate = step / (time.perf_counter() - start)
        log.info("resamples: %d (%.0f steps/s)", step, rate)


def moser_tardos(config: ConstructionConfig) -> ConstructionResult:
    """Resample the three rows of the first deficient triple until no
    triple is deficient or the step budget runs out.  The local lemma's
    constructive form guarantees fast convergence whenever m is at or
    below the lll_max_rows bound for the model.
    """
    start = time.perf_counter()
    params = config.params
    rows = [
        _sample_row(params, _row_rng(config.seed, i, 0)) for i in range(config.m)
    ]
    epochs = [0] * config.m
    scan = TripleScan(rows, params.n, _patterns(params))
    steps = 0
    while (bad := scan.first()) is not None:
        if steps >= config.max_resamples:
            return ConstructionResult(
                array=None, resamples_used=steps, triples_checked=scan.checked
            )
        for idx in bad:
            epochs[idx] += 1
            rows[idx] = _sample_row(params, _row_rng(config.seed, idx, epochs[idx]))
        scan.replace({idx: rows[idx] for idx in bad})
        steps += 1
        _progress(steps, start)
    return ConstructionResult(
        array=ArrayMatrix(n=params.n, rows=tuple(rows)),
        resamples_used=steps,
        triples_checked=scan.checked,
    )


def rejection(config: ConstructionConfig) -> ConstructionResult:
    """Redraw the whole array until deficiency-free.  resamples_used is
    the number of full redraws after the initial draw."""
    start = time.perf_counter()
    params = config.params
    checked = 0
    for attempt in range(config.max_resamples + 1):
        array = sample_rows(params, config.m, config.seed, epoch=attempt)
        bad = first_deficient_triple(array.rows, params.n, _patterns(params))
        checked += triples_through(config.m, bad)
        if bad is None:
            return ConstructionResult(
                array=array, resamples_used=attempt, triples_checked=checked
            )
        _progress(attempt + 1, start)
    return ConstructionResult(
        array=None, resamples_used=config.max_resamples, triples_checked=checked
    )


def greedy_extend(
    params: ModelParams,
    seed: int,
    attempts_per_row: int = 1_000,
    max_rows: int | None = None,
) -> ArrayMatrix:
    """Grow an array row by row, keeping a candidate only if it creates
    no GEKR-deficient triple with any existing pair.  Stops after
    attempts_per_row consecutive rejections, at max_rows, or before the
    first row whose array verify.scan_bytes refuses.  The result always
    passes is_gekr by construction.  The open tape of pairs is filled
    with full lanes, which fail only a candidate failing all.
    """
    n = params.n
    lanes = Lanes(_patterns(params), n)
    rows: list[int] = []
    firsts: list[int] = []  # lane value of every accepted row as a first
    pairs: list[int] = []  # lane value of every accepted pair of the open tape
    chunks: list[tuple[int, int, int]] = []  # CHUNK accepted pairs per tape, the open one last

    while max_rows is None or len(rows) < max_rows:
        t = len(rows)
        try:
            scan_bytes(t + 1, n, lanes.patterns)
        except ValueError:
            break
        accepted = None
        for attempt in range(attempts_per_row):
            cand = _sample_row(params, _row_rng(seed, t, attempt))
            if next(lanes.misses(lanes.spread(lanes.row(cand), CHUNK), chunks), None) is None:
                accepted = cand
                break
        if accepted is None:
            break
        if pairs:
            chunks.pop()  # the open tape, built again below
        second = lanes.row(accepted, 1)
        pairs += [first & second for first in firsts]
        chunks += [lanes.tape(pairs[c : c + CHUNK], CHUNK) for c in range(0, len(pairs), CHUNK)]
        del pairs[: len(pairs) // CHUNK * CHUNK]
        rows.append(accepted)
        firsts.append(lanes.row(accepted, 0))

    return ArrayMatrix(n=n, rows=tuple(rows))


def run(config: ConstructionConfig) -> ConstructionResult:
    """Dispatch on strategy.  Greedy always succeeds (possibly with few
    rows), ignores max_resamples, and reports zero resampling steps; the
    others refuse m >= 3 at density 1 before any draw, as no redraw helps."""
    if config.strategy is not Strategy.GREEDY and config.params.alpha == 1 and config.m >= 3:
        raise ValueError(f"m={config.m} is out of reach at density 1: all-ones rows never cover 011")
    if config.strategy is Strategy.MOSER_TARDOS:
        return moser_tardos(config)
    if config.strategy is Strategy.REJECTION:
        return rejection(config)
    array = greedy_extend(
        config.params,
        config.seed,
        attempts_per_row=config.attempts_per_row,
        max_rows=config.m,
    )
    return ConstructionResult(array=array, resamples_used=0)
