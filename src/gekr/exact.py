"""Small-case ground truth: brute-force enumeration and exhaustive
search.  Everything here is exponential in n and exists to validate the
formula-based modules on instances small enough to enumerate.

max_family treats a GEKR family of weight-k rows as a clique of the
3-uniform hypergraph on the C(n, k) rows whose edges are the triples
that cover every GEKR pattern:

* The compatibility table is built once: compat[a][b] is a C(n, k)-bit
  int whose bit c is set iff (a, b, c), in any order, is an edge.  With
  holders[j] the rows that hold column j, a third covers 101, 011, 111
  and 110 against rows x and y iff it is in each OR of holders over
  x - y, y - x and x & y, and not in their AND over x & y.
* A node of the search holds the chosen rows S, the candidates C (the
  rows that make an edge with every pair of S, as a bitset) and, for
  each candidate u, adj[u], the AND over a in S of compat[a][u].  Adding
  v leaves the candidates C & adj[v] and the adjacency adj[u] &
  compat[v][u].  The rows still to add are pairwise adjacent under adj,
  so a greedy colouring of C bounds how many there can be: the bound of
  the max-clique searches MCQ and MCS (Tomita et al., 2003 and 2010),
  kept as bitsets as in BBMC (San Segundo et al., 2011).
* Row 0, the first weight-k mask, is always chosen.  A column
  permutation maps any family onto one that holds it, so this is exact.
* One pass adds candidates from the highest colour down and stops where
  |S| plus the colour cannot beat the best family so far.  The first
  family of the largest size that it finds is the witness.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Sequence

from .core import ArrayMatrix, Pattern, Record

#: Column-count ceiling for the enumeration oracles.
MAX_ENUM_N = 8

#: Most bytes that the compatibility table of max_family may take.
MAX_TABLE_BYTES = 192 << 20

#: Candidate-count ceiling for max_family: the most candidates whose
#: table, as _table_bytes counts it, fits in MAX_TABLE_BYTES.
MAX_FAMILY_CANDIDATES = 1069


def _table_bytes(count: int) -> int:
    """Bytes of a compatibility table on count candidates, counted as
    count^2 list entries of 8 bytes, each to its own int of count bits:
    24 bytes and 4 per 30 bits, as CPython keeps them.  This bounds the
    table, where compat[a][b] and compat[b][a] share one int."""
    return count * count * (8 + 24 + 4 * -(-count // 30))


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
    a fixed first row A: the triple misses (a, b, c) iff
    sel(A, a) & sel(B, b) & sel(C, c) is zero, where sel(row, 1) = row
    and sel(row, 0) is its complement over the n columns.

    Fixing A is sound because relabeling columns is a bijection of the
    sample space that maps any first row to any other while preserving
    which patterns a triple realizes.
    """
    if not 1 <= r <= n <= MAX_ENUM_N:
        raise ValueError(
            f"enumeration limited to 1 <= r <= n <= {MAX_ENUM_N}, got r={r}, n={n}"
        )
    if len(pattern) != 3 or not set(pattern) <= {0, 1}:
        raise ValueError(f"not a binary length-3 pattern: {pattern}")
    full = (1 << n) - 1
    masks = _subset_masks(n, r)
    sel = [[mask if bit else mask ^ full for mask in masks] for bit in pattern]
    count = sum(not sel[0][0] & b & c for b in sel[1] for c in sel[2])
    return Fraction(count, len(masks) ** 2)


class MaxFamilyResult(Record):
    """size and a witness family of that size; optimal is False when the
    search hit its node budget before it ended, and the size is then only
    a lower bound.  nodes counts the rows the search added; it passes
    node_limit when the budget ran out."""

    __slots__ = ("size", "witness", "optimal", "nodes")
    size: int
    witness: tuple[tuple[int, ...], ...]
    optimal: bool
    nodes: int


class _BudgetSpent(Exception):
    """max_family's search has added node_limit rows."""


def _colour(
    cands: int, parent: Sequence[int], row: Sequence[int], floor: int
) -> tuple[list[tuple[int, int]], dict[int, int]]:
    """Greedy colouring of the candidate graph whose adjacency is
    parent[u] & row[u] for each candidate u, class by class: each class
    takes, from the highest candidate down, every one not adjacent to a
    member so far.  A clique takes at most one vertex per colour.
    Returns (vertex, colour) in the order coloured, so colours ascend,
    for the colours past floor, and the adjacency of every candidate."""
    adj: dict[int, int] = {}
    out, colour = [], 0
    while cands:
        colour += 1
        free = cands
        while free:
            v = free.bit_length() - 1
            bit = 1 << v
            adj[v] = near = parent[v] & row[v]
            free &= ~(near | bit)
            cands ^= bit
            if colour > floor:
                out.append((v, colour))
    return out, adj


def _compat_table(n: int, masks: list[int]) -> list[list[int]]:
    """compat[a][b]: bit c set iff rows a, b and c cover every GEKR
    pattern, from the column sets of the module docstring; 0 for a == b."""
    count = len(masks)
    cols = [[j for j in range(n) if mask >> j & 1] for mask in masks]
    holders = [sum(1 << i for i, mask in enumerate(masks) if mask >> j & 1) for j in range(n)]
    compat = [[0] * count for _ in range(count)]
    for a, x in enumerate(masks):
        for b in range(a + 1, count):
            both = x & masks[b]
            only_x, only_y, some, every = 0, 0, 0, -1
            for j in cols[a]:
                if both >> j & 1:
                    some |= holders[j]
                    every &= holders[j]
                else:
                    only_x |= holders[j]
            for j in cols[b]:
                if not both >> j & 1:
                    only_y |= holders[j]
            compat[a][b] = compat[b][a] = only_x & only_y & some & ~every
    return compat


def witness_matrix(n: int, witness: tuple[tuple[int, ...], ...]) -> ArrayMatrix:
    """Render a witness family as a binary array for re-verification."""
    rows = []
    for cols in witness:
        row = 0
        for c in cols:
            row |= 1 << c
        rows.append(row)
    return ArrayMatrix(n=n, rows=tuple(rows))


def max_family(n: int, k: int, node_limit: int = 5_000_000) -> MaxFamilyResult:
    """Largest family of weight-k rows over n columns in which every
    row triple realizes all four GEKR patterns, by the clique search of
    the module docstring.  The witness is the first family of that size
    the search finds, its rows in colexicographic order; it need not be
    the lexicographically first such family.
    ValueError past MAX_FAMILY_CANDIDATES candidates, before any table is built.

    Each row added is a node counted against node_limit.  When the budget
    runs out, the search stops and returns the largest family found, with
    optimal False.

    Families of size <= 2 are vacuously valid (no triples), so the
    answer is at least min(2, C(n, k)).
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    # C(n, k) >= n but at k = n, where the masks and the witness still
    # take time quadratic in n.  So a large n is refused at every k, and
    # before comb, whose time and memory grow with k, runs.
    if n > MAX_FAMILY_CANDIDATES or (count := comb(n, k)) > MAX_FAMILY_CANDIDATES:
        raise ValueError(
            f"C({n}, {k}) passes the ceiling of {MAX_FAMILY_CANDIDATES} candidates, "
            f"whose table takes at most {MAX_TABLE_BYTES} bytes"
        )
    if node_limit < 1:
        raise ValueError("node_limit must be positive")
    masks = _subset_masks(n, k)
    compat = _compat_table(n, masks)
    best = list(range(min(2, count)))
    nodes = 0

    def grow(chosen: list[int], cands: int, parent: Sequence[int], row: Sequence[int]) -> None:
        """Add each candidate v in turn, from the highest colour down,
        while chosen plus v's colour can beat best.  parent and row give
        the candidate graph as in _colour."""
        nonlocal best, nodes
        if len(chosen) > len(best):
            best = list(chosen)
        order, adj = _colour(cands, parent, row, len(best) - len(chosen))
        for v, colour in reversed(order):
            if len(chosen) + colour <= len(best):
                return
            nodes += 1
            if nodes > node_limit:
                raise _BudgetSpent
            chosen.append(v)
            grow(chosen, cands & adj[v], adj, compat[v])
            chosen.pop()
            cands ^= 1 << v

    # Column symmetry maps any family onto one that holds row 0.  Any row
    # may follow row 0, and any two may follow it together if compat[0]
    # allows.
    optimal = False
    try:
        grow([0], (1 << count) - 2, [-1] * count, compat[0])
        optimal = True
    except _BudgetSpent:
        pass
    # grow holds itself through its closure; deleting it frees the table
    # now rather than at a full garbage collection.
    del grow
    return MaxFamilyResult(
        size=len(best),
        witness=tuple(tuple(j for j in range(n) if (masks[i] >> j) & 1) for i in sorted(best)),
        optimal=optimal,
        nodes=nodes,
    )
