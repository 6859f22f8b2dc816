import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from gekr import exact
from gekr.bounds import sigma1, sigma2
from gekr.core import GEKR, ArrayMatrix, gekr_patterns
from gekr.exact import (
    MAX_ENUM_N,
    MAX_FAMILY_CANDIDATES,
    MAX_TABLE_BYTES,
    enumerate_missing_prob,
    max_family,
    witness_matrix,
)
from gekr.verify import Lanes, find_deficient_naive, is_gekr

SRC = Path(__file__).resolve().parent.parent / "src"


class TestEnumerateMissingProb:
    def test_full_weight_degenerate(self):
        # Weight-n rows: every column is all-ones.
        assert enumerate_missing_prob(4, 4, (1, 1, 1)) == 0
        assert enumerate_missing_prob(4, 4, (1, 1, 0)) == 1

    def test_matches_formula_sum(self):
        assert enumerate_missing_prob(6, 3, (1, 1, 1)) == Fraction(147, 400)
        assert enumerate_missing_prob(6, 3, (1, 1, 1)) == sigma1(6, 3)
        assert enumerate_missing_prob(6, 3, (1, 1, 0)) == sigma2(6, 3)

    @pytest.mark.parametrize("n,r", [(4, 2), (5, 3), (6, 2), (6, 4), (7, 5)])
    def test_formula_equivalence(self, n, r):
        assert enumerate_missing_prob(n, r, (1, 1, 1)) == sigma1(n, r)
        assert enumerate_missing_prob(n, r, (1, 1, 0)) == sigma2(n, r)

    @pytest.mark.parametrize("n,r", [(5, 2), (6, 3), (7, 4)])
    def test_pairwise_pattern_symmetry(self, n, r):
        probs = {
            enumerate_missing_prob(n, r, pat)
            for pat in [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
        }
        assert len(probs) == 1

    def test_111_lane_pruned_exactly_when_never_missed(self):
        # Three weight-r rows share at least 3r - 2n columns, so 111 is
        # never missed when 3r > 2n; below that some triple misses it.
        for n in range(1, MAX_ENUM_N + 1):
            for r in range(1, n + 1):
                never = 3 * r > 2 * n
                assert (enumerate_missing_prob(n, r, (1, 1, 1)) == 0) == never, (n, r)
                assert (sigma1(n, r) == 0) == never, (n, r)
                assert gekr_patterns(n, r).members == GEKR.members - ({(1, 1, 1)} if never else set())
                assert gekr_patterns(n, None) == GEKR

    def test_domain(self):
        with pytest.raises(ValueError):
            enumerate_missing_prob(MAX_ENUM_N + 1, 3, (1, 1, 1))
        with pytest.raises(ValueError):
            enumerate_missing_prob(5, 0, (1, 1, 1))
        with pytest.raises(ValueError):
            enumerate_missing_prob(5, 2, (1, 2, 0))


class TestMaxFamily:
    def test_three_choose_two(self):
        # The single candidate triple {12, 13, 23} has empty mutual
        # intersection, so no valid triple exists at all.
        result = max_family(3, 2)
        assert result.size == 2
        assert result.optimal
        assert len(result.witness) == 2

    def test_weight_two_capped_everywhere(self):
        # Two distinct 2-subsets can share at most one element, so a
        # triple can never realize both (1,1,1) and (1,1,0).
        for n in (3, 4, 5, 6):
            assert max_family(n, 2).size == 2

    def test_at_least_two(self):
        for n, k in [(4, 3), (5, 4), (6, 1)]:
            assert max_family(n, k).size >= 2

    def test_monotone_in_ground_set(self):
        sizes = {}
        for n in (4, 5, 6, 7):
            sizes[n] = max_family(n, 3).size
        assert sizes[4] <= sizes[5] <= sizes[6] <= sizes[7]

    def test_witnesses_verify(self):
        for n, k in [(5, 3), (6, 3), (7, 4)]:
            result = max_family(n, k)
            matrix = witness_matrix(n, result.witness)
            assert set(matrix.weights()) == {k}
            assert is_gekr(matrix)

    def test_stable_across_runs(self):
        a = max_family(7, 4)
        b = max_family(7, 4)
        assert a.size == b.size
        assert a.witness == b.witness

    def test_node_budget_inconclusive(self):
        result = max_family(7, 4, node_limit=2)
        assert not result.optimal
        assert result.size >= 2
        assert result.size <= max_family(7, 4).size

    def test_candidate_ceiling(self):
        with pytest.raises(ValueError):
            max_family(16, 8)

    def test_ceiling_from_table_bytes(self, monkeypatch):
        # The ceiling is the most candidates whose table fits the budget,
        # and one candidate past it is refused before any table is built.
        assert exact._table_bytes(MAX_FAMILY_CANDIDATES) <= MAX_TABLE_BYTES
        assert exact._table_bytes(MAX_FAMILY_CANDIDATES + 1) > MAX_TABLE_BYTES
        past = MAX_FAMILY_CANDIDATES + 1

        def unexpected(*args):
            raise AssertionError("work done past the ceiling")

        monkeypatch.setattr(exact, "_subset_masks", unexpected)
        monkeypatch.setattr(exact, "_compat_table", unexpected)
        # C(n, n) = 1, but its mask and witness take time quadratic in n:
        # n columns past the ceiling are refused at every k.
        for n, k in [(past, 1), (past, past), (47, 2)]:  # C(47, 2) = 1081
            with pytest.raises(ValueError, match="ceiling"):
                max_family(n, k)
        # comb(10^300, 10^4) alone takes seconds; a large n is refused
        # before it runs.
        monkeypatch.setattr(exact, "comb", unexpected)
        with pytest.raises(ValueError, match="ceiling"):
            max_family(10**300, 10**4)

    def test_nine_six_proven(self):
        # The first family of 9 rows that the search finds, in colex order.
        result = max_family(9, 6)
        assert (result.size, result.optimal) == (9, True)
        assert result.witness == (
            (0, 1, 2, 3, 4, 5),
            (0, 1, 2, 3, 6, 7),
            (0, 1, 4, 5, 6, 7),
            (2, 3, 4, 5, 6, 7),
            (0, 1, 2, 4, 6, 8),
            (0, 3, 4, 5, 6, 8),
            (0, 2, 3, 4, 7, 8),
            (0, 1, 2, 5, 7, 8),
            (1, 3, 4, 5, 7, 8),
        )
        assert not find_deficient_naive(witness_matrix(9, result.witness)).deficient

    @pytest.mark.parametrize(
        "n,k,want",
        [(7, 4, (5, True, 12)), (8, 4, (5, True, 15)), (8, 5, (8, True, 170)),
         (9, 7, (8, True, 178)), (9, 6, (9, True, 30_378))],
    )
    def test_size_and_nodes_pinned(self, n, k, want):
        # Any change in the colouring, the bound or the search order
        # shows up in the node count.
        result = max_family(n, k)
        assert (result.size, result.optimal, result.nodes) == want

    def test_budget_keeps_best_family(self):
        # (11, 8) is far from proven in 20,000 nodes, but the colour
        # order reaches a family of 13 rows or more well within them.
        start = time.perf_counter()
        result = max_family(11, 8, node_limit=20_000)
        assert time.perf_counter() - start < 10
        assert not result.optimal
        assert result.nodes == 20_001
        assert result.size >= 13
        matrix = witness_matrix(11, result.witness)
        assert (matrix.m, set(matrix.weights())) == (result.size, {8})
        assert not find_deficient_naive(matrix).deficient

    def test_nodes_counted(self):
        assert max_family(3, 2).nodes == 0
        small, large = max_family(7, 4), max_family(8, 5)
        assert 0 < small.nodes < large.nodes
        assert max_family(7, 4, node_limit=small.nodes).optimal
        # At (7, 4) the search ends at node 12: a size is optimal once
        # the search ends.
        assert not max_family(7, 4, node_limit=11).optimal
        assert max_family(7, 4, node_limit=12).optimal

    def test_domain(self):
        with pytest.raises(ValueError):
            max_family(5, 0)
        with pytest.raises(ValueError):
            max_family(5, 3, node_limit=0)


def test_witness_matrix_packing():
    matrix = witness_matrix(4, ((0, 1), (2, 3)))
    assert matrix.rows == (0b0011, 0b1100)
    assert matrix.weights() == (2, 2)


# Witnesses max_family returned before its filter moved onto verify.Lanes;
# any change in the search order or the predicate shows up here.
@pytest.mark.parametrize("n,k", [(7, 4), (8, 4)])
def test_max_family_golden_witness(n, k):
    result = max_family(n, k)
    assert (result.size, result.optimal) == (5, True)
    assert result.witness == (
        (0, 1, 2, 3),
        (0, 1, 2, 4),
        (0, 1, 3, 4),
        (0, 2, 3, 4),
        (1, 2, 3, 4),
    )


# (6,3) and (7,4) test four lanes; at (9,7), 3k > 2n drops the 111 lane.
# At (7,1) no two rows share a column, and at (7,2) most pairs share none.
@pytest.mark.parametrize("n,k", [(7, 1), (7, 2), (6, 3), (7, 4), (9, 7)])
def test_compat_table_oracle(n, k):
    lanes = Lanes(gekr_patterns(n, k), n)
    assert len(lanes.patterns) == (3 if 3 * k > 2 * n else 4)
    masks = exact._subset_masks(n, k)
    compat = exact._compat_table(n, masks)
    count = len(masks)
    for a in range(count):
        for b in range(count):
            assert compat[a][b] == compat[b][a]
            assert not compat[a][b] >> a & 1 and not compat[a][b] >> b & 1
            pair = lanes.row(masks[a], 0) & lanes.row(masks[b], 1)
            for c in range(count):
                assert (compat[a][b] >> c & 1) == (not lanes.deficient(pair, lanes.row(masks[c])))
    for a, b, c in combinations(range(count), 3):
        matrix = ArrayMatrix(n=n, rows=(masks[a], masks[b], masks[c]))
        assert (compat[a][b] >> c & 1) == (not find_deficient_naive(matrix).deficient)


def test_weight_one_at_the_ceiling():
    # C(1069, 1) is the candidate ceiling.  No two weight-1 rows share a
    # column, so no third covers 110 and the answer is 2, proven.
    probe = "from gekr.exact import max_family; r = max_family(1069, 1); print(r.size, r.optimal)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "True"]
