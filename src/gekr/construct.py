"""Randomized construction of GEKR arrays.

Moser-Tardos always resamples the rows of the lexicographically first
deficient triple.  The rule fixes every array bit for bit; what a step
costs is up to the search.  verify.TripleScan makes one forward pass
over the comb(m, 3) triples, spread over the run, and after each
resample tests again only the triples before its cursor that hold one
of the three new rows, so a step costs O(m^2) tests after that pass.
Greedy extension tests CHUNK accepted pairs per big-int operation,
the pairs most likely to reject a candidate first.
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
of how many triples the verifier inspected along the way.  The
SeedSequence hash is computed here, not by numpy's SeedSequence
object, and a fixed-weight row's bounded integers are drawn from the
raw outputs as Generator.integers draws them; tests check both
against numpy.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

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
        if self.strategy is not Strategy.GREEDY:
            self.row_count()
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

    def row_count(self) -> int:
        """m, for a strategy that needs a row count; ValueError if None."""
        if self.m is None:
            raise ValueError("--m is required for this strategy")
        return self.m


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


# numpy's SeedSequence (numpy/random/bit_generator.pyx), computed here:
# its entropy words are hashed into a pool of four 32-bit words, then
# generate_state(4, uint64) hashes the pool out into PCG64's seed.  Each
# word after the first four is mixed into every pool word in turn, so the
# pool after the seed's words and after a row's words can be kept, and a
# draw mixes in only its epoch.
_M32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_MIX_L, _MIX_R = 0xCA01_F9DD, 0x4973_F715
#: generate_state's hash constants INIT_B * MULT_B^i: its 32-bit output
#: word i is pool word i % 4 xored with _OUT_HASH[i], times _OUT_HASH[i + 1].
_OUT_HASH = [0x8B51_F9DD * 0x58F3_8DED**i & _M32 for i in range(9)]


def _words(value: int) -> list[int]:
    """The 32-bit words of a natural, least significant first; 0 is [0]."""
    out = [value & _M32]
    while value := value >> 32:
        out.append(value & _M32)
    return out


def _hashmix(value: int, h: int) -> tuple[int, int]:
    """One hashed word and the next hash constant."""
    value ^= h
    h = h * _MULT_A & _M32
    value = value * h & _M32
    return value ^ value >> 16, h


def _mix(x: int, y: int) -> int:
    x = _MIX_L * x - _MIX_R * y & _M32
    return x ^ x >> 16


def _absorb(pool: tuple[int, ...], h: int, words: list[int]) -> tuple[tuple[int, ...], int]:
    """Mix each word into every pool word, as mix_entropy does past the
    first four: _mix(pool[i], _hashmix(word)) written out."""
    mixed = list(pool)
    for word in words:
        for i in range(4):
            value = word ^ h
            h = h * _MULT_A & _M32
            value = value * h & _M32
            x = _MIX_L * mixed[i] - _MIX_R * (value ^ value >> 16) & _M32
            mixed[i] = x ^ x >> 16
    return tuple(mixed), h


@lru_cache(maxsize=16)
def _seed_pool(seed: int) -> tuple[tuple[int, ...], int]:
    """The pool and hash constant after the seed's words, zero-padded to
    four since a spawn key follows."""
    words = _words(seed)
    words += [0] * (4 - len(words))
    pool, h = [], _INIT_A
    for word in words[:4]:
        v, h = _hashmix(word, h)
        pool.append(v)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], v)
    return _absorb(tuple(pool), h, words[4:])


@lru_cache(maxsize=1024)
def _row_pool(seed: int, row_index: int) -> tuple[tuple[int, ...], int]:
    return _absorb(*_seed_pool(seed), _words(row_index))


@lru_cache(maxsize=1)
def _seeded() -> type:
    """A numpy ISeedSequence that hands PCG64 fixed state words; numpy is
    imported here, on the first row drawn, so that the bounds, the scans
    and the CLI start without it."""
    from numpy.random.bit_generator import ISeedSequence

    class Seeded(ISeedSequence):
        def __init__(self, state: np.ndarray) -> None:
            self.state = state

        def generate_state(self, n_words: int, dtype: object = None) -> np.ndarray:
            return self.state

    return Seeded


def _row_rng(seed: int, row_index: int, epoch: int) -> np.random.Generator:
    """The generator of PCG64(SeedSequence(seed, spawn_key=(row_index, epoch)))."""
    import numpy as np

    pool, _ = _absorb(*_row_pool(seed, row_index), _words(epoch))
    state = []  # the uint64 words, each from two 32-bit words, low first
    for i in range(0, 8, 2):
        low = (pool[i & 3] ^ _OUT_HASH[i]) * _OUT_HASH[i + 1] & _M32
        high = (pool[i + 1 & 3] ^ _OUT_HASH[i + 1]) * _OUT_HASH[i + 2] & _M32
        state.append(low ^ low >> 16 | (high ^ high >> 16) << 32)
    return np.random.Generator(np.random.PCG64(_seeded()(np.array(state, np.uint64))))


def _bounded(bit_generator: np.random.BitGenerator, excls: Sequence[int]) -> list[int]:
    """A draw from range(excl) for each excl, at most 2^32, as
    Generator.integers makes them from the same stream: Lemire's method
    on the 32-bit halves of each raw output, low half first, redrawing
    while the low word of the product is below (2^32 - excl) % excl.
    excl == 1 takes nothing from the stream."""
    halves: list[int] = []  # popped from the end
    count = len(excls) + 1 >> 1
    out = []
    for excl in excls:
        while excl > 1:
            if not halves:
                halves = bit_generator.random_raw(count).astype("<u8", copy=False).view("<u4")[::-1].tolist()
                count = 1
            product = halves.pop() * excl
            low = product & _M32
            # A low word at or above excl is at or above the threshold too.
            if low >= excl or low >= (0x1_0000_0000 - excl) % excl:
                out.append(product >> 32)
                break
        else:
            out.append(0)
    return out


def _sample_row(params: ModelParams, rng: np.random.Generator) -> int:
    """One packed row from the model distribution."""
    n, r = params.n, params.r
    if r is not None:
        # Partial Fisher-Yates on idx = range(n): after r swaps the prefix
        # idx[:r] is a uniform r-subset, swap j drawn from range(j, n).
        # moved keeps only the entries of idx that swaps changed.
        moved: dict[int, int] = {}
        row = 0
        for j, t in enumerate(_bounded(rng.bit_generator, range(n, n - r, -1))):
            t += j
            row |= 1 << moved.get(t, t)
            moved[t] = moved.get(j, j)
        return row
    import numpy as np

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
    params, m = config.params, config.row_count()
    rows = [_sample_row(params, _row_rng(config.seed, i, 0)) for i in range(m)]
    epochs = [0] * m
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
    params, m = config.params, config.row_count()
    checked = 0
    for attempt in range(config.max_resamples + 1):
        array = sample_rows(params, m, config.seed, epoch=attempt)
        bad = first_deficient_triple(array.rows, params.n, _patterns(params))
        checked += triples_through(m, bad)
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
    passes is_gekr by construction.

    Accepted pairs (x, y) are kept in tapes of CHUNK, grouped by
    min(|x - y|, |y - x|), and a candidate is tested against the groups
    from the smallest up: it fails pair (x, y) when it misses all of
    x - y (or y - x), most often when that set is small.  Whether a
    candidate is accepted does not depend on the order.  New pairs go
    into the next slots of their group's open tape, whose empty slots
    hold full lanes, which fail only a candidate failing all.
    """
    n = params.n
    lanes = Lanes(_patterns(params), n)
    rows: list[int] = []
    weights: list[int] = []  # of every accepted row
    firsts: list[int] = []  # lane value of every accepted row as a first
    groups: dict[int, list[tuple[int, int, int]]] = {}  # the group's tapes, the open one last
    sizes: dict[int, int] = {}  # pairs in each group
    tapes: list[tuple[int, int, int]] = []  # every tape, the smallest groups first

    while max_rows is None or len(rows) < max_rows:
        t = len(rows)
        try:
            scan_bytes(t + 1, n, lanes.patterns)
        except ValueError:
            break
        accepted = None
        for attempt in range(attempts_per_row):
            cand = _sample_row(params, _row_rng(seed, t, attempt))
            if next(lanes.misses(lanes.spread(lanes.row(cand), CHUNK), tapes), None) is None:
                accepted = cand
                break
        if accepted is None:
            break
        second = lanes.row(accepted, 1)
        # min(|x - y|, |y - x|) = (|x ^ y| - ||x| - |y||) / 2
        weight = accepted.bit_count()
        keys = [(row ^ accepted).bit_count() - abs(w - weight) >> 1 for row, w in zip(rows, weights)]
        new: dict[int, list[int]] = {}
        for key, first in zip(keys, firsts):
            new.setdefault(key, []).append(first & second)
        for key, values in new.items():
            group, size = groups.setdefault(key, []), sizes.get(key, 0)
            sizes[key] = size + len(values)
            while values:
                if (s := size % CHUNK) == 0:
                    group.append(lanes.tape(CHUNK))
                part, values = values[: CHUNK - s], values[CHUNK - s :]
                packed, k, h = group[-1]
                group[-1] = (lanes.put(packed, s, part), k, h)
                size += len(part)
        tapes = [tape for key in sorted(groups) for tape in groups[key]]
        rows.append(accepted)
        weights.append(weight)
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
