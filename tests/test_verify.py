import itertools
from concurrent.futures import Future
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gekr import verify
from gekr.core import GEKR, ArrayMatrix, PatternSet, parse_array
from gekr.verify import (
    Lanes,
    TripleScan,
    find_deficient,
    find_deficient_naive,
    first_deficient_triple,
    is_gekr,
    triple_coverage,
    triples_through,
)

COVERED_3X4 = parse_array("1110\n1101\n1011\n")
ALL_PATTERNS = sorted(itertools.product((0, 1), repeat=3))


def random_array(rng: np.random.Generator, m: int, n: int) -> ArrayMatrix:
    rows = tuple(
        int("".join(rng.choice(["0", "1"], size=n)), 2) for _ in range(m)
    )
    return ArrayMatrix(n=n, rows=rows)


class TestTripleCoverage:
    def test_all_ones_rows(self):
        missing = triple_coverage("11111", "11111", "11111")
        assert missing == {(0, 1, 1), (1, 0, 1), (1, 1, 0)}

    def test_weight_two_columns(self):
        assert triple_coverage("110", "101", "011") == {(1, 1, 1)}

    def test_covered_triple(self):
        assert triple_coverage("1110", "1101", "1011") == frozenset()

    def test_packed_rows_need_length(self):
        with pytest.raises(ValueError):
            triple_coverage(0b111, 0b101, 0b011)
        assert triple_coverage(0b111, 0b111, 0b111, n=3) == {
            (0, 1, 1),
            (1, 0, 1),
            (1, 1, 0),
        }

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            triple_coverage("110", "1010", "011")

    def test_general_patterns(self):
        zeros = PatternSet(frozenset({(0, 0, 0)}))
        assert triple_coverage("10", "10", "10", patterns=zeros) == frozenset()
        assert triple_coverage("11", "11", "11", patterns=zeros) == {(0, 0, 0)}

    @given(st.data())
    @settings(max_examples=60)
    def test_row_permutation_invariance(self, data):
        n = data.draw(st.integers(min_value=3, max_value=12))
        rows = [
            data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
            for _ in range(3)
        ]
        base = triple_coverage(rows[0], rows[1], rows[2], n=n)
        for p, q, s in itertools.permutations(range(3)):
            assert len(triple_coverage(rows[p], rows[q], rows[s], n=n)) == len(base)


class TestFindDeficient:
    def test_too_few_rows(self):
        for m in (0, 1, 2):
            arr = ArrayMatrix(n=4, rows=(0b1010,) * m)
            report = find_deficient(arr)
            assert report.ok
            assert report.total_checked == 0

    def test_covered_example(self):
        report = find_deficient(COVERED_3X4)
        assert report.ok
        assert report.deficient_count == 0
        assert report.total_checked == 1

    def test_duplicate_rows_always_deficient(self):
        arr = parse_array("1100\n1100\n0011\n")
        report = find_deficient(arr)
        assert report.deficient == ((0, 1, 2),)
        assert (1, 0, 1) in report.missing[0]
        assert not is_gekr(arr)

    def test_matches_naive_on_seeded_array(self):
        # 50 rows, 30 columns, weight 20, fixed seed.
        rng = np.random.default_rng(1)
        rows = []
        for _ in range(50):
            cols = rng.choice(30, size=20, replace=False)
            rows.append(sum(1 << int(c) for c in cols))
        arr = ArrayMatrix(n=30, rows=tuple(rows), declared_weight=20)
        fast = find_deficient(arr)
        naive = find_deficient_naive(arr)
        assert fast.deficient == naive.deficient
        assert fast.missing == naive.missing
        assert fast.total_checked == naive.total_checked

    def test_stop_early_rank(self):
        # Three deficient triples exist; stop_early must report the
        # lexicographic rank of the first one as total_checked.
        arr = parse_array("1100\n1100\n0011\n0101\n")
        full = find_deficient(arr)
        early = find_deficient(arr, stop_early=True)
        assert early.deficient == full.deficient[:1]
        first = full.deficient[0]
        rank = sorted(itertools.combinations(range(arr.m), 3)).index(first)
        assert early.total_checked == rank + 1

    def test_worker_independence(self):
        rng = np.random.default_rng(7)
        arr = random_array(rng, 16, 10)
        solo = find_deficient(arr)
        for workers in (2, 3, 5):
            multi = find_deficient(arr, workers=workers)
            assert multi.deficient == solo.deficient
            assert multi.missing == solo.missing
            assert multi.total_checked == solo.total_checked

    def test_worker_independence_stop_early(self):
        rng = np.random.default_rng(8)
        arr = random_array(rng, 14, 6)
        solo = find_deficient(arr, stop_early=True)
        multi = find_deficient(arr, stop_early=True, workers=3)
        assert multi.deficient == solo.deficient
        assert multi.total_checked == solo.total_checked

    def test_column_permutation_invariance(self):
        rng = np.random.default_rng(3)
        arr = random_array(rng, 10, 12)
        base = find_deficient(arr)
        for _ in range(5):
            perm = rng.permutation(12)
            remapped = tuple(
                sum(((row >> int(j)) & 1) << k for k, j in enumerate(perm))
                for row in arr.rows
            )
            shuffled = ArrayMatrix(n=12, rows=remapped)
            assert find_deficient(shuffled).deficient == base.deficient

    def test_general_pattern_set(self):
        # With the full 8-pattern set, constant rows fail immediately.
        every = PatternSet(
            frozenset((a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1))
        )
        arr = parse_array("111\n110\n100\n")
        report = find_deficient(arr, patterns=every)
        assert not report.ok
        fast = find_deficient(arr, patterns=every)
        naive = find_deficient_naive(arr, patterns=every)
        assert fast.missing == naive.missing

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_fast_equals_naive(self, data):
        m = data.draw(st.integers(min_value=3, max_value=8))
        n = data.draw(st.integers(min_value=1, max_value=16))
        rows = tuple(
            data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
            for _ in range(m)
        )
        arr = ArrayMatrix(n=n, rows=rows)
        fast = find_deficient(arr)
        naive = find_deficient_naive(arr)
        assert fast.deficient == naive.deficient
        assert fast.missing == naive.missing


class TestIsGekr:
    def test_empty_vacuous(self):
        assert is_gekr(ArrayMatrix(n=3, rows=()))

    def test_known_cases(self):
        assert is_gekr(COVERED_3X4)
        assert not is_gekr(parse_array("111\n111\n111\n"))

    def test_first_deficient_triple(self):
        assert first_deficient_triple(COVERED_3X4.rows, 4) is None
        assert first_deficient_triple((0b111, 0b111, 0b111), 3) == (0, 1, 2)


def test_triple_count_bookkeeping():
    rng = np.random.default_rng(5)
    arr = random_array(rng, 9, 8)
    report = find_deficient(arr)
    assert report.total_checked == comb(9, 3)
    assert len(report.deficient) == report.deficient_count


def naive_first(rows, n, patterns=GEKR):
    report = find_deficient_naive(ArrayMatrix(n=n, rows=tuple(rows)), patterns)
    return report.deficient[0] if report.deficient else None


class TestTripleScan:
    def test_triples_through_is_rank_plus_one(self):
        for m in range(8):
            assert triples_through(m, None) == comb(m, 3)
            for rank, triple in enumerate(itertools.combinations(range(m), 3)):
                assert triples_through(m, triple) == rank + 1

    def test_one_pass_counts_its_tests(self):
        rng = np.random.default_rng(3)
        for m in (0, 2, 3, 9):
            arr = random_array(rng, m, 6)
            scan = TripleScan(arr.rows, arr.n)
            bad = scan.first()
            assert bad == naive_first(arr.rows, arr.n)
            assert scan.checked == triples_through(m, bad)
            assert scan.first() == bad and scan.checked == triples_through(m, bad)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_replacements_match_naive(self, data):
        # Replace the rows of the first deficient triple, as Moser-Tardos
        # does, or up to three arbitrary rows; after each replacement
        # first() must be the naive scan's first hit on the current rows.
        patterns = data.draw(
            st.sampled_from([GEKR, PatternSet(frozenset(ALL_PATTERNS[3:6]))])
        )
        m = data.draw(st.integers(min_value=0, max_value=9))
        n = data.draw(st.integers(min_value=1, max_value=7))
        row = st.integers(min_value=0, max_value=(1 << n) - 1)
        rows = [data.draw(row) for _ in range(m)]
        scan = TripleScan(rows, n, patterns)
        replaced = 0
        for _ in range(data.draw(st.integers(min_value=0, max_value=8))):
            bad = scan.first()
            assert bad == naive_first(rows, n, patterns)
            if bad is not None and data.draw(st.booleans()):
                targets = set(bad)
            elif m:
                targets = data.draw(st.sets(st.integers(0, m - 1), max_size=3))
            else:
                targets = set()
            new = {r: data.draw(row) for r in targets}
            for r, value in new.items():
                rows[r] = value
            scan.replace(new)
            replaced += len(new)
        assert scan.first() == naive_first(rows, n, patterns)
        # One forward pass in all, and at most every triple holding a
        # replaced row per replacement.
        assert scan.checked <= comb(m, 3) + replaced * comb(max(m - 1, 0), 2)


class TestLanes:
    def test_layout(self):
        # n = 2: lanes are 3 bits wide, guard bit at position 2 of each.
        lanes = Lanes(PatternSet(frozenset({(0, 1, 1), (1, 1, 0)})), 2)
        assert lanes.row(0b01) == 0b10_001  # lane 0: row, lane 1: complement
        assert lanes.pair(0b01, 0b11) == 0b001_010
        assert not lanes.deficient(lanes.pair(0b10, 0b11), lanes.row(0b01))

    def test_guard_carry_stays_in_lane(self):
        # Full lanes next to empty ones: adding K must not carry across.
        for n in (1, 2, 7, 64):
            full = (1 << n) - 1
            lanes = Lanes(PatternSet(frozenset({(1, 1, 1), (1, 1, 0)})), n)
            pair = lanes.pair(full, full)
            assert lanes.deficient(pair, lanes.row(full))
            assert lanes.missing(pair, lanes.row(full)) == {(1, 1, 0)}
            assert lanes.missing(pair, lanes.row(0)) == {(1, 1, 1)}

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_pattern_sets_match_naive(self, data):
        patterns = PatternSet(
            frozenset(
                data.draw(
                    st.lists(
                        st.sampled_from(ALL_PATTERNS), min_size=1, max_size=8, unique=True
                    )
                )
            )
        )
        m = data.draw(st.integers(min_value=3, max_value=8))
        n = data.draw(st.integers(min_value=1, max_value=16))
        rows = tuple(
            data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
            for _ in range(m)
        )
        arr = ArrayMatrix(n=n, rows=rows)
        naive = find_deficient_naive(arr, patterns)
        for workers in (None, 2):
            fast = find_deficient(arr, patterns, workers=workers)
            assert fast.deficient == naive.deficient
            assert fast.missing == naive.missing
            assert fast.total_checked == naive.total_checked
        gaps = dict(zip(naive.deficient, naive.missing))
        for i, j, l in itertools.combinations(range(m), 3):
            got = triple_coverage(rows[i], rows[j], rows[l], patterns=patterns, n=n)
            assert got == gaps.get((i, j, l), frozenset())


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers and runs
    each submitted call inline, so no process is started."""

    sizes: list[int] = []

    def __init__(self, max_workers: int) -> None:
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None

    def submit(self, fn, *args) -> Future:
        future: Future = Future()
        future.set_result(fn(*args))
        return future


class TestWorkerBounds:
    def test_below_one_rejected(self):
        for workers in (0, -3):
            with pytest.raises(ValueError):
                find_deficient(COVERED_3X4, workers=workers)

    @pytest.mark.parametrize("cpus", [3, 5])
    def test_pool_capped_at_cpu_count(self, monkeypatch, cpus):
        # The inline pool also checks that 3- and 5-way splits give the
        # single-process answer on hosts with fewer cores.
        monkeypatch.setattr(verify, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        arr = random_array(np.random.default_rng(11), 40, 6)
        assert find_deficient(arr, workers=10_000) == find_deficient(arr)
        early = find_deficient(arr, stop_early=True, workers=10_000)
        assert early == find_deficient(arr, stop_early=True)
        assert _RecordingPool.sizes == [cpus, cpus]

    def test_single_cpu_skips_pool(self, monkeypatch):
        monkeypatch.setattr(verify, "ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        assert find_deficient(COVERED_3X4, workers=8).ok
        assert _RecordingPool.sizes == []
