import io
import itertools
import random
import sys
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gekr import verify
from gekr.cli import main
from gekr.core import GEKR, ArrayMatrix, PatternSet, parse_array
from gekr.verify import (
    Lanes,
    TripleScan,
    find_deficient,
    find_deficient_naive,
    first_deficient_triple,
    is_gekr,
    triples_through,
)

COVERED_3X4 = parse_array("1110\n1101\n1011\n")
ALL_PATTERNS = sorted(itertools.product((0, 1), repeat=3))
#: GEKR without 111, the set that scans of heavy fixed-weight rows test.
PAIRWISE = PatternSet(GEKR.members - {(1, 1, 1)})


def random_array(rng: np.random.Generator, m: int, n: int) -> ArrayMatrix:
    rows = tuple(
        int("".join(rng.choice(["0", "1"], size=n)), 2) for _ in range(m)
    )
    return ArrayMatrix(n=n, rows=rows)


def coverage(rows, patterns: PatternSet = GEKR, n: int | None = None) -> frozenset:
    """The patterns that a triple of rows misses, from find_deficient on
    the 3-row array: rows as bit strings, or packed with n columns."""
    arr = parse_array("\n".join(rows)) if n is None else ArrayMatrix(n=n, rows=tuple(rows))
    report = find_deficient(arr, patterns)
    assert report.total_checked == 1
    return report.missing[0] if report.deficient else frozenset()


class TestTripleCoverage:
    def test_all_ones_rows(self):
        missing = coverage(["11111", "11111", "11111"])
        assert missing == {(0, 1, 1), (1, 0, 1), (1, 1, 0)}

    def test_weight_two_columns(self):
        assert coverage(["110", "101", "011"]) == {(1, 1, 1)}

    def test_covered_triple(self):
        assert coverage(["1110", "1101", "1011"]) == frozenset()

    def test_general_patterns(self):
        zeros = PatternSet(frozenset({(0, 0, 0)}))
        assert coverage(["10", "10", "10"], patterns=zeros) == frozenset()
        assert coverage(["11", "11", "11"], patterns=zeros) == {(0, 0, 0)}

    @given(st.data())
    @settings(max_examples=60)
    def test_row_permutation_invariance(self, data):
        n = data.draw(st.integers(min_value=3, max_value=12))
        rows = [
            data.draw(st.integers(min_value=0, max_value=(1 << n) - 1))
            for _ in range(3)
        ]
        base = coverage(rows, n=n)
        for order in itertools.permutations(rows):
            assert len(coverage(order, n=n)) == len(base)


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
        arr = ArrayMatrix(n=30, rows=tuple(rows))
        fast = find_deficient(arr)
        naive = find_deficient_naive(arr)
        assert fast.deficient == naive.deficient
        assert fast.missing == naive.missing
        assert fast.total_checked == naive.total_checked

    def test_stop_early_rank(self):
        # Three deficient triples exist; TripleScan.first stops at the
        # first one and counts its lexicographic rank plus one as checked.
        arr = parse_array("1100\n1100\n0011\n0101\n")
        full = find_deficient(arr)
        scan = TripleScan(arr.rows, arr.n)
        first = scan.first()
        assert first == full.deficient[0]
        rank = sorted(itertools.combinations(range(arr.m), 3)).index(first)
        assert scan.checked == rank + 1

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
        patterns = data.draw(st.sampled_from([GEKR, PAIRWISE]))
        m = data.draw(st.integers(min_value=0, max_value=30))
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

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_rescan_matches_brute_force(self, data):
        # After each replacement, found is exactly the deficient triples
        # before the cursor, and checked is the forward pass plus, for
        # each replaced row, the triples before the cursor that hold it.
        # m runs over the padding edges: block 0 of 16, 17, 18 or 33 slots.
        patterns = data.draw(st.sampled_from([GEKR, PAIRWISE]))
        m = data.draw(st.integers(0, 30) | st.sampled_from([17, 18, 19, 34]))
        n = data.draw(st.integers(min_value=1, max_value=7))
        rows = list(biased_rows(data, m, n))
        triples = list(itertools.combinations(range(m), 3))
        scan = TripleScan(rows, n, patterns)
        rescanned = 0
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            bad = scan.first()
            assert bad == naive_first(rows, n, patterns)
            if bad is not None and data.draw(st.booleans()):
                targets = set(bad)
            else:
                targets = data.draw(st.sets(st.integers(0, m - 1), max_size=3)) if m else set()
            new = {r: data.draw(st.integers(0, (1 << n) - 1)) for r in targets}
            rescanned += sum(r in t for r in new for t in triples if t < scan.cursor)
            rows[:] = [new.get(r, row) for r, row in enumerate(rows)]
            scan.replace(new)
            deficient = find_deficient_naive(ArrayMatrix(n=n, rows=tuple(rows)), patterns)
            assert scan.found == {t for t in deficient.deficient if t < scan.cursor}
            passed = sum(t < scan.cursor for t in triples)
            assert scan.checked == passed + rescanned

    @pytest.mark.parametrize("patterns", [GEKR, PAIRWISE])
    @pytest.mark.parametrize("m", [18, 34])
    def test_block_zero_edges(self, m, patterns):
        # Clean rows, then new rows and copies of row 0.  Slot m - 2 of
        # block 0, which a spread over padded(m - 2) slots leaves out at
        # m = 18 and 34, holds (0, 1, m - 1) clean and then (0, 2, m - 1)
        # deficient; slot 4 holds (0, 5, 9), which only a block 0 patched
        # for row 5 finds again when row 9 is replaced.
        rng = random.Random(m)
        rows = [rng.getrandbits(120) for _ in range(m)]
        scan = TripleScan(rows, 120, patterns)
        assert scan.first() is None
        fresh = rng.getrandbits
        for new in ({1: fresh(120)}, {m - 1: rows[0]}, {2: fresh(120)}, {5: rows[0]}, {9: fresh(120)}):
            rows[:] = [new.get(r, row) for r, row in enumerate(rows)]
            scan.replace(new)
            naive = find_deficient_naive(ArrayMatrix(n=120, rows=tuple(rows)), patterns)
            assert scan.found == set(naive.deficient)
            assert scan.first() == min(scan.found, default=None)
        assert {(0, 2, m - 1), (0, 5, 9)} <= scan.found

    def test_replace_needs_closed_patterns(self):
        # {011, 100, 101} holds 011 but not 110, so the order of a
        # triple's rows matters; scanning it still works.
        patterns = PatternSet(frozenset(ALL_PATTERNS[3:6]))
        rows = (0b0110, 0b1010, 0b0011, 0b1111)
        scan = TripleScan(rows, 4, patterns)
        assert scan.first() == naive_first(rows, 4, patterns)
        with pytest.raises(ValueError, match="closed under permutation"):
            scan.replace({0: 0b0101})


def biased_rows(data, m: int, n: int) -> tuple[int, ...]:
    """m rows of n columns with a drawn density, some of them repeated,
    so that deficient triples are neither absent nor everywhere."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    density = data.draw(st.sampled_from([0.05, 0.3, 0.5, 0.7, 0.95]))
    rows = [
        int("".join("1" if b else "0" for b in rng.random(n) < density), 2) for _ in range(m)
    ]
    for _ in range(data.draw(st.integers(0, 3)) if m > 1 else 0):
        a, b = data.draw(st.integers(0, m - 1)), data.draw(st.integers(0, m - 1))
        rows[a] = rows[b]
    return tuple(rows)


class TestBlockScan:
    """The block test against the naive oracle, with slots many machine
    words wide and blocks past the padding multiple."""

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_blocks_match_naive(self, data):
        patterns = PatternSet(
            frozenset(
                data.draw(
                    st.lists(
                        st.sampled_from(ALL_PATTERNS), min_size=1, max_size=8, unique=True
                    )
                )
            )
        )
        m = data.draw(st.integers(min_value=0, max_value=40))
        n = data.draw(st.integers(min_value=1, max_value=70))
        arr = ArrayMatrix(n=n, rows=biased_rows(data, m, n))
        naive = find_deficient_naive(arr, patterns)
        assert find_deficient(arr, patterns) == naive
        first = naive.deficient[0] if naive.deficient else None
        scan = TripleScan(arr.rows, n, patterns)
        assert scan.first() == first
        assert scan.checked == triples_through(m, first)
        # A start in the middle of a block: l > j + 1.
        starts = [t for t in itertools.combinations(range(m), 3) if t[2] > t[1] + 1]
        if starts:
            start = data.draw(st.sampled_from(starts))
            want = [
                (*t, miss) for t, miss in zip(naive.deficient, naive.missing) if t >= start
            ]
            scan = TripleScan(arr.rows, n, patterns)
            assert list(scan.scan(start)) == want
            assert next(scan.scan(start), None) == (want[0] if want else None)

    @given(st.integers(0, 2**32 - 1), st.integers(5, 30), st.integers(10, 30))
    @settings(max_examples=60, deadline=None)
    def test_replacements_with_sparse_hits(self, seed, m, n):
        # Uniform rows of 10 or more columns keep deficient triples rare,
        # so first() often scans past the cursor through blocks that
        # replace has patched.  A copy of another row makes every triple
        # holding both deficient.
        rng = random.Random(seed)
        rows = [rng.getrandbits(n) for _ in range(m)]
        scan = TripleScan(rows, n)
        for _ in range(6):
            bad = scan.first()
            assert bad == naive_first(rows, n)
            targets = set(bad or ()) | {rng.randrange(m) for _ in range(rng.randint(0, 2))}
            new = {
                r: rows[rng.randrange(m)] if rng.random() < 0.5 else rng.getrandbits(n)
                for r in targets
            }
            for r, value in new.items():
                rows[r] = value
            scan.replace(new)
        assert scan.first() == naive_first(rows, n)


class TestBlockLimit:
    def test_limit_raises(self, monkeypatch):
        arr = random_array(np.random.default_rng(4), 12, 9)
        monkeypatch.setattr(verify, "MAX_BLOCK_BYTES", 100)
        with pytest.raises(ValueError, match="limit of 100"):
            TripleScan(arr.rows, arr.n)
        with pytest.raises(ValueError, match="limit of 100"):
            find_deficient(arr)
        # Fewer than three rows need no blocks.
        assert TripleScan(arr.rows[:2], arr.n).first() is None

    def test_closed_form_matches_sum(self):
        # The reference sums the slots block by block: blocks 0 to m - 2,
        # which fewer than three rows do not keep, then one tape of
        # m + PAD slots.
        for n, size in ((1, 1), (9, 4), (62, 4), (80, 8), (200, 3)):
            patterns = PatternSet(frozenset(ALL_PATTERNS[:size]))
            running = 0  # sum(map(_padded, range(1, m)))
            for m in range(2001):
                running += verify._padded(m - 1)  # the term c = m - 1
                top, blocks = (verify._padded(m - 1), running) if m > 2 else (0, 0)
                slots = blocks + top * (top // verify.PAD + 1) + m + verify.PAD
                assert verify.scan_bytes(m, n, patterns) == slots * size * (n + 1) // 30 * 4

    @pytest.mark.parametrize("patterns", [GEKR, PAIRWISE])
    @pytest.mark.parametrize("m, n", [(5, 9), (17, 62), (40, 200), (100, 80)])
    def test_kept_ints_within_scan_bytes(self, m, n, patterns):
        # Every int a TripleScan keeps, once each: the blocks, the tape of
        # thirds and the carry cache.  An int's digits take its size past
        # that of 0, up to one digit more than its bits need; that is the
        # 4 bytes per int.
        rng = random.Random(m * n)
        scan = TripleScan([rng.getrandbits(n) for _ in range(m)], n, patterns)
        scan.first()
        kept = [*itertools.chain(*scan._blocks, *scan.lanes._carry.values()), scan._third_tape]
        unique = {id(x): x for x in kept}.values()
        size = sum(sys.getsizeof(x) - sys.getsizeof(0) for x in unique)
        assert size <= verify.scan_bytes(m, n, patterns) + 4 * len(unique)

    def test_cli_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(verify, "MAX_BLOCK_BYTES", 100)
        monkeypatch.setattr("sys.stdin", io.StringIO("1110\n1101\n1011\n" * 4))
        with pytest.raises(SystemExit) as exc:
            main(["verify", "-"])
        assert exc.value.code == 2
        assert "limit of 100" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--k", "3", "--n", "6", "--m", "12"])
        assert exc.value.code == 2
        assert "limit of 100" in capsys.readouterr().err


def packed(lanes: Lanes, values, count: int) -> int:
    """values[s] in slot s, then full lanes up to count slots, one shift each."""
    full = lanes.carry(1)[0]
    return sum((values[s] if s < len(values) else full) << s * lanes.slot for s in range(count))


def filled_tape(lanes: Lanes, values, count: int) -> tuple[int, int, int]:
    """An empty tape of count slots with values put in from slot 0."""
    empty, k, h = lanes.tape(count)
    return (lanes.put(empty, 0, values), k, h)


class TestLanes:
    def test_layout(self):
        # n = 2: lanes are 3 bits wide, guard bit at position 2 of each.
        lanes = Lanes(PatternSet(frozenset({(0, 1, 1), (1, 1, 0)})), 2)
        assert lanes.row(0b01) == 0b10_001  # lane 0: row, lane 1: complement
        assert lanes.row(0b01, 0) & lanes.row(0b11, 1) == 0b001_010
        assert not lanes.deficient(lanes.row(0b10, 0) & lanes.row(0b11, 1), lanes.row(0b01))

    @pytest.mark.parametrize("n", [1, 7, 64, 1000])
    def test_carry_repeats_one_slot(self, n):
        lanes = Lanes(GEKR, n)
        for count in (0, 1, 2, 3, 5, 16, 17, 48, 64, 100):
            feet = sum(1 << s * lanes.slot for s in range(count))
            assert lanes.carry(count) == (lanes._k * feet, lanes._h * feet)

    @pytest.mark.parametrize("n", [1, 7, 64, 1000])
    def test_spread_and_row_match_products(self, n):
        # The shifted copies give what a multiplication by the sparse
        # constant gives: feet for a spread, and for a row the bit 0 of
        # every lane whose pattern reads 1 (or 0) at that place.
        rng = random.Random(n)
        lanes = Lanes(GEKR, n)
        for place in range(3):
            one = sum(1 << t * lanes.width for t, p in enumerate(lanes.patterns) if p[place])
            zero = sum(1 << t * lanes.width for t, p in enumerate(lanes.patterns) if not p[place])
            for row in (0, lanes.full, rng.getrandbits(n)):
                assert lanes.row(row, place) == row * one | (row ^ lanes.full) * zero
        for count in (0, 1, 2, 3, 5, 16, 17, 48, 64, 100, 289):
            feet = sum(1 << s * lanes.slot for s in range(count))
            for value in (lanes.row(rng.getrandbits(n)), lanes.carry(1)[1]):
                assert lanes.spread(value, count) == value * feet

    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_put_fills_slots_of_a_packed_tape(self, n):
        # An empty tape holds full lanes in every slot; values put in slot
        # by slot, or a run at a time, give the packing of all of them at
        # once, built here shift by shift, with the rest full lanes.
        rng = random.Random(n)
        lanes = Lanes(GEKR, n)
        values = [lanes.row(rng.getrandbits(n), 1) & lanes.row(rng.getrandbits(n)) for _ in range(40)]
        for count in (40, 64):
            empty, k, h = lanes.tape(count)
            assert (k, h) == lanes.carry(count)
            assert empty == packed(lanes, [], count)
            tape = empty
            for s, value in enumerate(values):
                tape = lanes.put(tape, s, [value])
                assert tape == packed(lanes, values[: s + 1], count)
            runs = lanes.put(lanes.put(lanes.put(empty, 0, values[:5]), 5, values[5:17]), 17, values[17:])
            assert runs == tape

    def test_guard_carry_stays_in_lane(self):
        # Full lanes next to empty ones: adding K must not carry across.
        for n in (1, 2, 7, 64):
            full = (1 << n) - 1
            lanes = Lanes(PatternSet(frozenset({(1, 1, 1), (1, 1, 0)})), n)
            pair = lanes.row(full, 0) & lanes.row(full, 1)
            assert lanes.deficient(pair, lanes.row(full))
            tapes = [filled_tape(lanes, [lanes.row(full)], 1), filled_tape(lanes, [lanes.row(0)], 1)]
            (_, full_clear), (_, zero_clear) = lanes.misses(pair, tapes)
            assert lanes.missing(full_clear) == {(1, 1, 0)}
            assert lanes.missing(zero_clear) == {(1, 1, 1)}

    @pytest.mark.parametrize(
        "patterns",
        [
            GEKR,
            PAIRWISE,
            PatternSet(frozenset(ALL_PATTERNS)),
            PatternSet(frozenset({(0, 0, 1), (1, 1, 0)})),  # not closed under permutation
            PatternSet(frozenset({(1, 0, 0)})),
        ],
    )
    @pytest.mark.parametrize("count", [1, 15, 16, 17, 33])
    def test_misses_match_deficient(self, patterns, count):
        # Row x as a first row against tapes of (y, z) pairs, some slots
        # left to the full-lane filler, and each tape made clean or not
        # on purpose: misses yields exactly the tapes with a deficient
        # slot, in the order asked for.  A slot's clear guard bits give
        # its naive missing set.
        n = 16
        rng = random.Random(count * 97 + len(patterns))
        lanes = Lanes(patterns, n)
        mask = (1 << lanes.slot) - 1
        x = sum(1 << c for c in rng.sample(range(n), n // 2))  # so clean triples are common

        def gap(y: int, z: int) -> frozenset:
            seen = {(x >> c & 1, y >> c & 1, z >> c & 1) for c in range(n)}
            return frozenset(set(patterns.members) - seen)

        def draw(want_clean: bool) -> tuple[int, int]:
            while True:
                y, z = rng.getrandbits(n), rng.getrandbits(n)
                if want_clean == (not gap(y, z)):
                    return y, z

        filled = [rng.randint(0, count) for _ in range(8)]
        triples = [
            [draw(tape % 2 == 0 or s > 0 and rng.random() < 0.8) for s in range(used)]
            for tape, used in enumerate(filled)
        ]
        tapes = [filled_tape(lanes, [lanes.row(y, 1) & lanes.row(z) for y, z in t], count) for t in triples]
        value = lanes.spread(lanes.row(x, 0), count)
        bad = {
            i for i, t in enumerate(triples)
            if any(lanes.deficient(lanes.row(x, 0) & lanes.row(y, 1), lanes.row(z)) for y, z in t)
        }
        assert bad == {i for i in range(1, 8, 2) if filled[i]}  # the odd tapes miss at slot 0
        order = [7, 0, 5, 3, 2, 6, 4]  # tape 1 left out
        assert [i for i, _ in lanes.misses(value, tapes, order)] == [i for i in order if i in bad]
        hits = dict(lanes.misses(value, tapes))
        assert list(hits) == sorted(bad)
        for i, clear in hits.items():
            per_slot = [clear >> s * lanes.slot & mask for s in range(count)]
            gaps = [gap(y, z) for y, z in triples[i]] + [frozenset()] * (count - filled[i])
            assert [lanes.missing(bits) for bits in per_slot] == gaps

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
        fast = find_deficient(arr, patterns)
        assert fast.deficient == naive.deficient
        assert fast.missing == naive.missing
        assert fast.total_checked == naive.total_checked


class TestWorkerBounds:
    def test_below_one_rejected(self, capsys):
        # The scan runs in one process; --workers stays accepted, with
        # the same bound.
        for workers in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                main(["verify", "-", "--workers", workers])
            assert exc.value.code == 2
            assert "workers must be at least 1" in capsys.readouterr().err
