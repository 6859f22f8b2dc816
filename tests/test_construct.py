import hashlib
import itertools
import logging
import math
import time
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gekr import construct, verify
from gekr.bounds import floor_rows, nu
from gekr.construct import (
    ConstructionConfig,
    Strategy,
    _bounded,
    _row_rng,
    _sample_row,
    greedy_extend,
    moser_tardos,
    rejection,
    run,
    sample_rows,
)
from gekr.cli import main
from gekr.core import GEKR, ModelParams
from gekr.verify import find_deficient, first_deficient_triple, is_gekr, triples_through

FIXED_20_14 = ModelParams.fixed_weight(20, 14)
FIXED_30_20 = ModelParams.fixed_weight(30, 20)


def loop_sample_row(params, rng) -> int:
    """The row sampler as it was written first, one column or one swap
    at a time: the reference for the packed sampler's rows."""
    n = params.n
    if params.r is not None:
        idx = list(range(n))
        row = 0
        for j in range(params.r):
            t = int(rng.integers(j, n))
            idx[j], idx[t] = idx[t], idx[j]
            row |= 1 << idx[j]
        return row
    u = rng.random(n)
    row = 0
    for j in range(n):
        if u[j] < float(params.alpha):
            row |= 1 << j
    return row


class TestSampleRows:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_rows_match_loop_sampler(self, data):
        n = data.draw(st.integers(1, 300))
        if data.draw(st.booleans()):
            params = ModelParams.fixed_weight(n, data.draw(st.integers(1, n)))
        else:
            params = ModelParams.independent(Fraction(data.draw(st.integers(1, 64)), 64), n)
        seed, row, epoch = (data.draw(st.integers(0, bound)) for bound in (2**32 - 1, 10**4, 20))
        want = loop_sample_row(params, _row_rng(seed, row, epoch))
        assert _sample_row(params, _row_rng(seed, row, epoch)) == want

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_row_stream_is_numpys_seed_sequence(self, data):
        # The hash that _row_rng computes itself gives the PCG64 state of
        # SeedSequence(seed, spawn_key=(row, epoch)), for seeds of up to
        # five 32-bit words and keys across the word boundaries.
        edges = st.sampled_from([0, 2**32 - 1, 2**32, 2**64])
        seed = data.draw(st.one_of(st.integers(0, 2**140 - 1), edges))
        row, epoch = (data.draw(st.one_of(st.integers(0, 2**40 - 1), edges)) for _ in range(2))
        want = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(row, epoch))).state
        assert _row_rng(seed, row, epoch).bit_generator.state == want

    def test_row_stream_at_word_boundaries(self):
        edges = (0, 2**32 - 1, 2**32, 2**64)
        for seed, row, epoch in itertools.product(edges, repeat=3):
            want = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(row, epoch))).state
            assert _row_rng(seed, row, epoch).bit_generator.state == want, (seed, row, epoch)

    @given(st.integers(0, 2**128 - 1), st.integers(2**31, 2**32 - 1), st.integers(0, 40))
    @settings(max_examples=200, deadline=None)
    def test_bounded_matches_generator_integers(self, state, high, k):
        # Near 2^32 Lemire's method redraws for up to half the outputs,
        # a branch that row draws, with excl at most n, almost never take.
        want = np.random.Generator(np.random.PCG64(state)).integers(np.zeros(k, np.int64), high)
        assert _bounded(np.random.PCG64(state), [high] * k) == want.tolist()

    @given(st.integers(0, 2**64 - 1), st.lists(st.one_of(st.just(1), st.integers(2, 2**32)), max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_bounded_takes_nothing_for_one(self, state, excls):
        # excl == 1 draws nothing, anywhere in the list: the r = n row.
        highs = np.array(excls, np.int64)
        want = np.random.Generator(np.random.PCG64(state)).integers(np.zeros(len(excls), np.int64), highs)
        assert _bounded(np.random.PCG64(state), excls) == want.tolist()
        n = len(excls) + 1
        want = np.random.Generator(np.random.PCG64(state)).integers(np.arange(n), n) - np.arange(n)
        assert _bounded(np.random.PCG64(state), range(n, 0, -1)) == want.tolist()

    def test_fixed_weight_invariant(self):
        arr = sample_rows(FIXED_20_14, 50, seed=123)
        assert set(arr.weights()) == {14}

    def test_reproducible(self):
        a = sample_rows(FIXED_30_20, 25, seed=9)
        b = sample_rows(FIXED_30_20, 25, seed=9)
        assert a.rows == b.rows
        assert a.rows != sample_rows(FIXED_30_20, 25, seed=10).rows

    def test_rows_differ_between_indices(self):
        arr = sample_rows(FIXED_30_20, 40, seed=0)
        assert len(set(arr.rows)) > 1

    def test_independent_density_one(self):
        params = ModelParams.independent(1, 7)
        arr = sample_rows(params, 4, seed=2)
        assert set(arr.rows) == {(1 << 7) - 1}

    def test_independent_weight_plausible(self):
        params = ModelParams.independent(0.3, 1000)
        arr = sample_rows(params, 1, seed=5)
        w = arr.weights()[0]
        sd = math.sqrt(1000 * 0.3 * 0.7)
        assert abs(w - 300) < 5 * sd

    def test_overlap_matches_hypergeometric_mean(self):
        # Mean pairwise overlap of uniform weight-10 rows over 20
        # columns is r^2/n = 5.  With 10^4 rows the pair-mean standard
        # error is 1.62e-4 (distinct pairs are uncorrelated), so a 3-SE
        # window is a sharp but deterministic check at this seed.
        params = ModelParams.fixed_weight(20, 10)
        arr = sample_rows(params, 10_000, seed=7)
        m = arr.m
        col_sums = [sum((row >> j) & 1 for row in arr.rows) for j in range(20)]
        pair_total = sum(c * (c - 1) // 2 for c in col_sums)
        mean = pair_total / (m * (m - 1) / 2)
        assert abs(mean - 5.0) < 3 * 1.622e-4


class TestMoserTardos:
    def test_no_triples_immediate(self):
        config = ConstructionConfig(params=FIXED_20_14, m=2, seed=0)
        result = moser_tardos(config)
        assert result.success
        assert result.resamples_used == 0

    def test_reaches_lll_floor(self):
        m = floor_rows(nu(FIXED_20_14.alpha, 20, mode="exact-sum"))
        assert m == 3
        result = moser_tardos(ConstructionConfig(params=FIXED_20_14, m=m, seed=42))
        assert result.success
        assert result.array is not None
        assert is_gekr(result.array)
        assert set(result.array.weights()) == {14}

    def test_deterministic(self):
        config = ConstructionConfig(params=FIXED_30_20, m=12, seed=3)
        a, b = moser_tardos(config), moser_tardos(config)
        assert a.resamples_used == b.resamples_used
        assert a.array is not None and b.array is not None
        assert a.array.rows == b.array.rows

    def test_impossible_instance_fails(self):
        # Weight-n rows are all-ones, so (1,1,0) can never be covered.
        config = ConstructionConfig(
            params=ModelParams.fixed_weight(6, 6), m=3, seed=0, max_resamples=40
        )
        result = moser_tardos(config)
        assert not result.success
        assert result.array is None
        assert result.resamples_used == 40

    def test_weight_preserved_after_resampling(self):
        # Push a tight instance so resampling actually happens.
        params = ModelParams.fixed_weight(12, 8)
        result = moser_tardos(ConstructionConfig(params=params, m=6, seed=1))
        if result.success:
            assert set(result.array.weights()) == {8}


def from_scratch(config):
    """Moser-Tardos as it was before verify.TripleScan: a full search for
    the first deficient triple after every resample.  Returns the rows (or
    None when the budget ran out) and the step count."""
    params = config.params
    rows = [_sample_row(params, _row_rng(config.seed, i, 0)) for i in range(config.m)]
    epochs = [0] * config.m
    steps = 0
    while (bad := first_deficient_triple(rows, params.n)) is not None:
        if steps >= config.max_resamples:
            return None, steps
        for idx in bad:
            epochs[idx] += 1
            rows[idx] = _sample_row(params, _row_rng(config.seed, idx, epochs[idx]))
        steps += 1
    return tuple(rows), steps


# (params, m, seed, max_resamples): m from 0 to 3 and at the exact-sum or
# zeta floor of each model; m above the floor, where runs take 5 to 45
# steps; runs that spend their budget; and alpha = 1, where every row is
# all ones and every triple stays deficient.
ORACLE_CASES = [
    *[(params, m, 0, 1_000_000) for params in (FIXED_20_14, ModelParams.independent(0.7, 30))
      for m in range(3)],
    *[(ModelParams.fixed_weight(n, k), m, seed, 1_000_000)
      for n, k, m in ((20, 14, 3), (24, 17, 5), (30, 21, 11), (36, 25, 23), (40, 28, 38))
      for seed in range(5)],
    *[(ModelParams.independent(alpha, n), m, seed, 1_000_000)
      for alpha, n, m in ((0.7, 30, 3), (0.75, 40, 5))
      for seed in range(5)],
    *[(params, m, seed, 1_000_000)
      for params, m in (
          (ModelParams.fixed_weight(24, 17), 20),
          (ModelParams.fixed_weight(40, 28), 60),
          (ModelParams.independent(0.7, 30), 16),
          (ModelParams.independent(0.75, 40), 30),
      )
      for seed in range(3)],
    (ModelParams.fixed_weight(12, 8), 12, 0, 7),
    (ModelParams.independent(0.5, 8), 10, 1, 5),
    (ModelParams.independent(1, 5), 3, 0, 20),
    (ModelParams.independent(1, 5), 6, 0, 20),
]


@pytest.mark.parametrize(
    "params,m,seed,max_resamples",
    ORACLE_CASES,
    ids=[f"{'independent' if p.r is None else 'fixed-weight'}-n{p.n}-a{float(p.alpha):.3g}-m{m}-seed{s}-max{x}"
         for p, m, s, x in ORACLE_CASES],
)
def test_moser_tardos_matches_from_scratch(params, m, seed, max_resamples):
    config = ConstructionConfig(params=params, m=m, seed=seed, max_resamples=max_resamples)
    result = moser_tardos(config)
    rows, steps = from_scratch(config)
    assert result.resamples_used == steps
    assert (result.array.rows if result.success else None) == rows
    # One forward pass, plus at most the triples holding each new row.
    assert result.triples_checked <= math.comb(m, 3) + 3 * steps * math.comb(max(m - 1, 0), 2)


def test_moser_tardos_floor_golden():
    # Rows of (50, 35) at its exact-sum floor m = 136, seed 18, as the
    # from-scratch driver built them.
    params = ModelParams.fixed_weight(50, 35)
    result = moser_tardos(ConstructionConfig(params=params, m=136, seed=18))
    assert result.resamples_used == 3
    digest = hashlib.sha256(result.array.to_text().encode()).hexdigest()
    assert digest == "461e8fb56588322ab53ea96e0b3dbcea121d86dc6e4abaece271064c61976b18"
    # The triple tests, as the per-triple rescan counted them; (54, 38)
    # at its floor m = 227 takes 11 steps.
    assert result.triples_checked == 473_180
    params = ModelParams.fixed_weight(54, 38)
    result = moser_tardos(ConstructionConfig(params=params, m=227, seed=18))
    assert (result.resamples_used, result.triples_checked) == (11, 2_329_279)
    digest = hashlib.sha256(result.array.to_text().encode()).hexdigest()
    assert digest == "6be5a5e82aa2f82f4151bc59ee7f1a0849f131db9a7e7cbd2a5552b4fa35f3b4"


class TestTriplesChecked:
    def test_clean_first_draw_is_one_pass(self):
        params = ModelParams.fixed_weight(30, 21)
        result = moser_tardos(ConstructionConfig(params=params, m=20, seed=0))
        assert result.resamples_used == 0
        assert result.triples_checked == math.comb(20, 3)
        small = moser_tardos(ConstructionConfig(params=FIXED_20_14, m=2, seed=0))
        assert small.triples_checked == 0

    def test_rejection_counts_every_attempt(self):
        config = ConstructionConfig(
            params=FIXED_30_20, m=8, seed=5, strategy=Strategy.REJECTION
        )
        result = rejection(config)
        expected = sum(
            triples_through(8, first_deficient_triple(sample_rows(FIXED_30_20, 8, 5, a).rows, 30))
            for a in range(result.resamples_used + 1)
        )
        assert result.triples_checked == expected
        failed = rejection(
            ConstructionConfig(
                params=ModelParams.fixed_weight(5, 5), m=3, seed=0,
                strategy=Strategy.REJECTION, max_resamples=5,
            )
        )
        assert failed.triples_checked == 6  # (0, 1, 2) fails each of 6 draws

    def test_greedy_reports_zero(self):
        config = ConstructionConfig(params=FIXED_30_20, m=6, seed=1, strategy=Strategy.GREEDY)
        assert run(config).triples_checked == 0


class TestProgressLogging:
    IMPOSSIBLE = ConstructionConfig(
        params=ModelParams.fixed_weight(6, 6), m=3, seed=0, max_resamples=12
    )

    def test_records_with_rate(self, monkeypatch, caplog):
        monkeypatch.setattr(construct, "PROGRESS_EVERY", 5)
        caplog.set_level(logging.INFO, logger="gekr")
        moser_tardos(self.IMPOSSIBLE)
        records = [r for r in caplog.records if r.name == "gekr"]
        assert [r.levelno for r in records] == [logging.INFO] * 2
        for record, step in zip(records, (5, 10)):
            message = record.getMessage()
            assert message.startswith(f"resamples: {step} (")
            assert message.endswith(" steps/s)")

    def test_caller_can_silence(self, monkeypatch, caplog):
        monkeypatch.setattr(construct, "PROGRESS_EVERY", 5)
        caplog.set_level(logging.INFO)
        caplog.set_level(logging.WARNING, logger="gekr")
        moser_tardos(self.IMPOSSIBLE)
        assert not [r for r in caplog.records if r.name == "gekr"]


class TestRejection:
    def test_success_and_determinism(self):
        config = ConstructionConfig(
            params=FIXED_30_20, m=8, seed=5, strategy=Strategy.REJECTION
        )
        a, b = rejection(config), rejection(config)
        assert a.success and b.success
        assert a.array.rows == b.array.rows
        assert a.resamples_used == b.resamples_used
        assert is_gekr(a.array)

    def test_impossible_instance_fails(self):
        config = ConstructionConfig(
            params=ModelParams.fixed_weight(5, 5),
            m=3,
            seed=0,
            strategy=Strategy.REJECTION,
            max_resamples=5,
        )
        result = rejection(config)
        assert not result.success
        assert result.resamples_used == 5


class TestGreedy:
    def test_first_two_rows_always_accepted(self):
        arr = greedy_extend(ModelParams.fixed_weight(6, 6), seed=0, attempts_per_row=2)
        assert arr.m == 2  # third all-ones row can never be added

    def test_output_is_gekr(self):
        arr = greedy_extend(ModelParams.fixed_weight(15, 10), seed=3, attempts_per_row=200)
        assert is_gekr(arr)
        assert set(arr.weights()) == {10}
        assert find_deficient(arr).ok

    def test_beats_lll_floor(self):
        floor = floor_rows(nu(ModelParams.fixed_weight(15, 10).alpha, 15, mode="exact-sum"))
        arr = greedy_extend(ModelParams.fixed_weight(15, 10), seed=3, attempts_per_row=200)
        assert arr.m >= floor

    def test_max_rows_cap(self):
        arr = greedy_extend(
            ModelParams.fixed_weight(15, 10), seed=3, attempts_per_row=50, max_rows=4
        )
        assert arr.m == 4

    def test_stops_at_the_scan_limit(self, monkeypatch):
        # At (100, 70) a candidate is almost never rejected, so only the
        # scan's size limit stops greedy short of max_rows: it keeps the
        # most rows that verify.scan_bytes accepts, here 40.
        params = ModelParams.fixed_weight(100, 70)
        patterns = construct._patterns(params)
        monkeypatch.setattr(verify, "MAX_BLOCK_BYTES", verify.scan_bytes(40, 100, patterns))
        with pytest.raises(ValueError, match="past the limit"):
            verify.scan_bytes(41, 100, patterns)
        arr = greedy_extend(params, seed=0, attempts_per_row=50, max_rows=60)
        assert arr.m == 40
        monkeypatch.undo()  # is_gekr tests the four patterns, past the patched limit
        assert is_gekr(arr)

    def test_deterministic(self):
        a = greedy_extend(ModelParams.fixed_weight(12, 7), seed=11, attempts_per_row=60)
        b = greedy_extend(ModelParams.fixed_weight(12, 7), seed=11, attempts_per_row=60)
        assert a.rows == b.rows


def reference_greedy(params, seed, attempts_per_row, max_rows):
    """Greedy extension one triple at a time: a candidate is kept iff
    Lanes.deficient holds, under all four GEKR patterns, for none of
    the accepted pairs, with candidates drawn as greedy_extend draws
    them."""
    lanes = verify.Lanes(GEKR, params.n)
    rows = []
    while max_rows is None or len(rows) < max_rows:
        for attempt in range(attempts_per_row):
            cand = _sample_row(params, _row_rng(seed, len(rows), attempt))
            pairs = itertools.combinations(rows, 2)
            if not any(lanes.deficient(lanes.row(x, 0) & lanes.row(y, 1), lanes.row(cand)) for x, y in pairs):
                rows.append(cand)
                break
        else:
            return tuple(rows)
    return tuple(rows)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_greedy_matches_one_triple_at_a_time(data):
    # The tapes are tested smallest difference first, and filled slot by
    # slot; neither may change which candidate is accepted.  Short tapes
    # make the groups of these few rows span several.
    n = data.draw(st.integers(1, 12))
    if data.draw(st.booleans()):
        params = ModelParams.fixed_weight(n, data.draw(st.integers(1, n)))
    else:
        params = ModelParams.independent(Fraction(data.draw(st.integers(1, 16)), 16), n)
    seed = data.draw(st.integers(0, 2**64))
    attempts = data.draw(st.integers(1, 40))
    max_rows = data.draw(st.one_of(st.none(), st.integers(0, 40)))
    want = reference_greedy(params, seed, attempts, max_rows)
    with mock.patch.object(construct, "CHUNK", data.draw(st.sampled_from([1, 2, 5, 64]))):
        assert greedy_extend(params, seed, attempts_per_row=attempts, max_rows=max_rows).rows == want


class TestConfigAndRun:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ConstructionConfig(params=FIXED_20_14, m=-1, seed=0)
        with pytest.raises(ValueError):
            ConstructionConfig(params=FIXED_20_14, m=3, seed=0, max_resamples=0)
        with pytest.raises(ValueError):
            ConstructionConfig(params=FIXED_20_14, m=3, seed=0, attempts_per_row=0)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            ConstructionConfig(params=FIXED_20_14, m=3, seed=-1)
        with pytest.raises(ValueError, match="--m is required"):
            ConstructionConfig(params=FIXED_20_14, m=None, seed=0)

    @pytest.mark.parametrize("strategy", [moser_tardos, rejection])
    def test_strategies_needing_m_refuse_a_greedy_config(self, strategy):
        # A greedy config may leave m unset; the strategies that need a
        # row count refuse it with the config's own error.
        config = ConstructionConfig(params=FIXED_20_14, m=None, seed=0, strategy=Strategy.GREEDY)
        with pytest.raises(ValueError, match="^--m is required for this strategy$"):
            strategy(config)

    def test_greedy_row_cap(self):
        # m = 0 caps greedy at no rows; None leaves it uncapped.
        config = ConstructionConfig(params=FIXED_30_20, m=0, seed=1, strategy=Strategy.GREEDY)
        assert run(config).array.m == 0
        uncapped = run(replace(config, m=None)).array
        assert uncapped.rows == greedy_extend(FIXED_30_20, seed=1).rows and uncapped.m > 3

    @pytest.mark.parametrize(
        "argv", [["--k", "2", "--n", "4", "--m", "1000000000000"], ["--n", "1e12", "--k", "3", "--m", "3"]]
    )
    def test_scan_size_checked_before_drawing(self, argv, monkeypatch, capsys):
        def no_draws(*args):
            raise AssertionError("a row was drawn")

        monkeypatch.setattr(construct, "_sample_row", no_draws)
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(["construct", *argv])
        assert exc.value.code == 2
        assert time.perf_counter() - start < 1.0
        assert "past the limit of" in capsys.readouterr().err

    def test_run_dispatch(self):
        for strategy in Strategy:
            config = ConstructionConfig(
                params=FIXED_30_20,
                m=6,
                seed=1,
                strategy=strategy,
                attempts_per_row=100,
            )
            result = run(config)
            assert result.success
            assert is_gekr(result.array)


# Rows greedy_extend returned (seed 0, 200 attempts per row) before its
# candidate test moved onto verify.Lanes; any change in output fails here.
GREEDY_GOLDEN = {
    (20, 14): (
        416255, 974643, 902142, 833275, 866799, 120767, 784509, 1023207,
        982738, 916908, 927727, 961855, 974231, 223199, 781087, 819129,
        620279, 1044069, 454586, 458693, 113659, 696062, 521972, 376383,
        950124, 1042408, 981675, 1013233, 1038027, 475023, 1007514, 750588,
        638807,
    ),
    (24, 17): (
        7697917, 15949299, 16221182, 15050719, 15101948, 9240446, 6223279,
        16669053, 16186684, 11270974, 1829759, 6224843, 15465701, 13610859,
        12560871, 16490170, 12057149, 16433049, 7700442, 7851735, 2990075,
        16031479, 12828637, 12031979, 16358863, 8187007, 8320634, 16381773,
        16700883, 14532082, 16539447, 12483407, 8087486, 15912799, 15678422,
        16246579, 14640375, 15636159, 14082022, 8011503, 13581755, 14399087,
        15395551, 3141437, 14151565, 14638805, 10157975, 12055798, 7584757,
        15072171, 12440551,
    ),
}


@pytest.mark.parametrize("n,k", sorted(GREEDY_GOLDEN))
def test_greedy_golden_rows(n, k):
    arr = greedy_extend(ModelParams.fixed_weight(n, k), seed=0, attempts_per_row=200)
    assert arr.rows == GREEDY_GOLDEN[(n, k)]
