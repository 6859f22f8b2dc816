"""Triple checker that shares no code with gekr.verify.

Rows are packed integers (bit j = column j) of at most 64 columns, held
as one uint64 word each.  For a first row i the checker builds the whole
(j, l) block of later row pairs at once and marks a triple deficient
when one of the four GEKR patterns 111, 110, 101, 011 is absent from
all of its columns.  The benchmark uses it to certify arrays whose
digest differs from the reference and to cross-check captured
references, so a bug in the program's own kernel cannot vouch for its
own output.
"""

from __future__ import annotations

import hashlib
from math import comb

import numpy as np


def _words(rows, n: int) -> tuple[np.ndarray, np.uint64]:
    if not 1 <= n <= 64:
        raise ValueError(f"checker handles 1..64 columns, got {n}")
    full = np.uint64((1 << n) - 1)
    return np.array(rows, dtype=np.uint64).reshape(-1), full


def _block(words: np.ndarray, full: np.uint64, i: int) -> np.ndarray:
    """Boolean matrix D with D[j', l'] true when rows (i, i+1+j', i+1+l')
    are deficient and j' < l'."""
    a = words[i]
    later = words[i + 1 :]
    not_later = later ^ full
    both = (a & later)[:, None]
    only_a = (a & not_later)[:, None]
    only_b = ((a ^ full) & later)[:, None]
    c = later[None, :]
    bad = (
        ((both & c) == 0)
        | ((both & not_later[None, :]) == 0)
        | ((only_a & c) == 0)
        | ((only_b & c) == 0)
    )
    return np.triu(bad, k=1)


def first_deficient(rows, n: int) -> tuple[int, int, int] | None:
    """Lexicographically first deficient triple, or None."""
    words, full = _words(rows, n)
    m = len(words)
    for i in range(m - 2):
        hits = np.flatnonzero(_block(words, full, i))
        if hits.size:
            width = m - 1 - i
            j, l = divmod(int(hits[0]), width)
            return i, i + 1 + j, i + 1 + l
    return None


def count_deficient(rows, n: int) -> tuple[int, tuple[int, int, int] | None]:
    """Number of deficient triples and the first of them."""
    words, full = _words(rows, n)
    m = len(words)
    total, first = 0, None
    for i in range(m - 2):
        block = _block(words, full, i)
        hits = int(block.sum())
        if hits and first is None:
            j, l = divmod(int(np.argmax(block)), m - 1 - i)
            first = (i, i + 1 + j, i + 1 + l)
        total += hits
    return total, first


def triple_rank(m: int, i: int, j: int, l: int) -> int:
    """Zero-based position of i < j < l in the lexicographic listing of
    the increasing triples of range(m): the triples whose first index is
    below i, then those starting (i, j') with j' < j, then (i, j, l')."""
    before_i = comb(m, 3) - comb(m - i, 3)
    before_j = comb(m - i - 1, 2) - comb(m - j, 2)
    return before_i + before_j + (l - j - 1)


def array_text(rows, n: int) -> str:
    """The array file format: one '0'/'1' line per row, column 0 first."""
    return "".join(format(row, f"0{n}b")[::-1] + "\n" for row in rows)


def digest(rows, n: int) -> str:
    return hashlib.sha256(array_text(rows, n).encode()).hexdigest()


def valid_fixed_weight(rows, n: int, k: int, m: int | None = None) -> str | None:
    """None when the rows form an m-row, weight-k, deficiency-free array;
    otherwise the reason they do not."""
    if m is not None and len(rows) != m:
        return f"{len(rows)} rows, expected {m}"
    for idx, row in enumerate(rows):
        if not 0 <= row < (1 << n) or bin(row).count("1") != k:
            return f"row {idx} is not a weight-{k} row over {n} columns"
    bad = first_deficient(rows, n)
    return None if bad is None else f"deficient triple {bad}"
