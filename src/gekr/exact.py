"""Small-case ground truth: brute-force enumeration and exhaustive
search.  Everything here is exponential in n and exists to validate the
formula-based modules on instances small enough to enumerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .core import ArrayMatrix, Pattern, PatternSet, gekr_patterns
from .verify import Lanes

#: Column-count ceiling for the enumeration oracles.
MAX_ENUM_N = 8

#: Candidate-count ceiling for the exhaustive family search.
MAX_FAMILY_CANDIDATES = 4096


def _subset_masks(n: int, r: int) -> list[int]:
    """All weight-r rows over n columns, as packed ints in increasing
    numeric order.  Numeric order on masks is colexicographic order on
    the underlying column subsets."""
    masks = []
    for cols in combinations(range(n), r):
        mask = 0
        for c in cols:
            mask |= 1 << c
        masks.append(mask)
    masks.sort()
    return masks


def enumerate_missing_prob(n: int, r: int, pattern: Pattern) -> Fraction:
    """Exact probability that three independent uniform weight-r rows
    miss the given pattern, by enumerating ordered pairs (B, C) against
    a fixed first row A.

    Fixing A is sound because relabeling columns is a bijection of the
    sample space that maps any first row to any other while preserving
    which patterns a triple realizes.
    """
    if not 1 <= r <= n <= MAX_ENUM_N:
        raise ValueError(
            f"enumeration limited to 1 <= r <= n <= {MAX_ENUM_N}, got r={r}, n={n}"
        )
    # One lane, so one guard bit per slot: a pair's misses are the clear
    # guard bits of one carry test against the tape of every third.
    lanes = Lanes(PatternSet(frozenset({tuple(pattern)})), n)
    masks = _subset_masks(n, r)
    thirds = lanes.tape([lanes.row(c) for c in masks], len(masks))
    k, h = lanes.carry(len(masks))
    count = 0
    for b in masks:
        pair = lanes.spread(lanes.pair(masks[0], b), len(masks))
        count += (h ^ (pair & thirds) + k & h).bit_count()
    return Fraction(count, len(masks) ** 2)


@dataclass(frozen=True)
class MaxFamilyResult:
    """size and a witness family of that size; optimal is False when the
    search hit its node budget and the size is only a lower bound."""

    size: int
    witness: tuple[tuple[int, ...], ...]
    optimal: bool


def witness_matrix(n: int, witness: tuple[tuple[int, ...], ...]) -> ArrayMatrix:
    """Render a witness family as a binary array for re-verification."""
    rows = []
    for cols in witness:
        row = 0
        for c in cols:
            row |= 1 << c
        rows.append(row)
    weights = {len(cols) for cols in witness}
    declared = weights.pop() if len(weights) == 1 else None
    return ArrayMatrix(n=n, rows=tuple(rows), declared_weight=declared)


def max_family(n: int, k: int, node_limit: int = 5_000_000) -> MaxFamilyResult:
    """Largest family of weight-k rows over n columns in which every
    row triple realizes all four GEKR patterns, by depth-first
    branch and bound over candidates in colexicographic order.

    At each node the candidate list holds exactly the rows compatible
    with every pair already chosen, so the bound len(chosen) +
    len(candidates) is valid and filtering is incremental: extending by
    row S only needs the new pairs (A, S) re-checked, on the patterns of
    core.gekr_patterns (no 111 lane when 3k > 2n).  Search order is
    deterministic, so results are reproducible run to run.

    Families of size <= 2 are vacuously valid (no triples), so the
    answer is at least min(2, C(n, k)).
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if comb(n, k) > MAX_FAMILY_CANDIDATES:
        raise ValueError(
            f"C({n}, {k}) = {comb(n, k)} candidates exceed the "
            f"{MAX_FAMILY_CANDIDATES} search ceiling"
        )
    if node_limit < 1:
        raise ValueError("node_limit must be positive")
    lanes = Lanes(gekr_patterns(n, k), n)
    masks = _subset_masks(n, k)
    # Lane values of every mask at each place of a triple.
    first, second, third = ({mask: lanes.row(mask, place) for mask in masks} for place in range(3))

    best_size = min(2, len(masks))
    best_witness = masks[: best_size]
    nodes = 0
    budget_hit = False

    # levels[t]: (feet, K, H) for the t slots of a tape at depth t, where
    # feet holds 1 in each slot; built once per depth.
    levels: list[tuple[int, int, int]] = []

    def dfs(chosen: list[int], candidates: list[int]) -> None:
        nonlocal best_size, best_witness, nodes, budget_hit
        if len(chosen) > best_size:
            best_size = len(chosen)
            best_witness = list(chosen)
        if len(levels) == len(chosen):
            levels.append((lanes.spread(1, len(chosen)), *lanes.carry(len(chosen))))
        feet, k, h = levels[len(chosen)]
        for pos, cand in enumerate(candidates):
            if len(chosen) + len(candidates) - pos <= best_size:
                return  # even taking every remaining candidate cannot win
            nodes += 1
            if nodes > node_limit:
                budget_hit = True
                return
            # One tape of the new pairs (prev, cand): a candidate stays
            # if no pair leaves it a pattern short.
            pairs = lanes.tape([first[prev] & second[cand] for prev in chosen], len(chosen))
            narrowed = [c for c in candidates[pos + 1 :] if (third[c] * feet & pairs) + k & h == h]
            chosen.append(cand)
            dfs(chosen, narrowed)
            chosen.pop()
            if budget_hit:
                return

    dfs([], masks)

    witness = tuple(
        tuple(j for j in range(n) if (mask >> j) & 1) for mask in best_witness
    )
    return MaxFamilyResult(size=best_size, witness=witness, optimal=not budget_hit)
