"""Deficiency scanning: which row triples miss a required pattern.

Every triple test in the package is one predicate, Lanes.deficient.  For
a triple (x, y, z) and pattern (a, b, c), the columns realizing the
pattern are the set bits of  sel(x,a) & sel(y,b) & sel(z,c),  where
sel(row, 1) = row and sel(row, 0) = ~row masked to n columns.  The
pattern is missing iff that AND is zero.

Lanes packs a whole pattern set into one integer, so a triple costs the
same three big-int operations for any set.  Lane t is w = n + 1 bits
wide and starts at bit t*w; it belongs to pattern t of the sorted set.
Bits 0..n-1 of a lane hold the columns, and bit n is the lane's guard
bit, which packed values leave clear:

* a row's lane value holds sel(z, c_t) in lane t (the row as third);
* a pair's lane value holds sel(x, a_t) & sel(y, b_t) in lane t.

ANDing the two leaves in lane t the columns that realize pattern t, a
value of at most 2^n - 1.  Adding K = sum over t of (2^n - 1) << t*w
therefore carries into a lane's guard bit exactly when the lane is
non-zero, and never past the guard bit into the next lane.  With H the
mask of all guard bits, the triple is deficient iff

    ((pair & row) + K) & H != H.

Only for a deficient triple does Lanes.missing read back which guard
bits stayed clear, that is, which lanes of pair & row are zero.

A scan tests a row block per operation.  Slot s of a block is the lane
value at bits s*S.. of S = P*w bits, for P patterns.  Block j holds
seconds[j] & thirds[l] in slot l - j - 1 for each l > j, padded to a
multiple of PAD slots with seconds[j] alone (a third of full lanes).
firsts[i] copied into every slot, ANDed with block j, holds triple
(i, j, j + 1 + s) in slot s, and with K and H repeated once per slot,
((spread & block) + K) & H != H tests every l at once.  The clear guard
bits decode to the deficient slots, lowest l first.  A padding slot
fails only where every real slot does, so decoding stops at the first
one.  The blocks take about comb(m, 2) * S bits, at most MAX_BLOCK_BYTES.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Iterator, Sequence

from .core import GEKR, ArrayMatrix, DeficiencyReport, Pattern, PatternSet, pack_row

#: Blocks are padded to a multiple of PAD slots, so K and H are kept for
#: multiples of PAD slots only.
PAD = 16
#: Most bytes that the blocks and carry constants of a TripleScan may take.
MAX_BLOCK_BYTES = 1 << 30


class Lanes:
    """Lane packing of one pattern set over n columns."""

    def __init__(self, patterns: PatternSet, n: int) -> None:
        self.patterns = tuple(patterns)
        self.width = n + 1
        self.full = (1 << n) - 1
        # _feet[place][bit]: bit 0 of every lane whose pattern reads `bit`
        # at position `place`; multiplying a row by it copies the row there.
        self._feet = [[0, 0], [0, 0], [0, 0]]
        for t, pattern in enumerate(self.patterns):
            for place, bit in enumerate(pattern):
                self._feet[place][bit] |= 1 << (t * self.width)
        feet = self._feet[0][0] | self._feet[0][1]
        k, h = self.full * feet, feet << n

        def deficient(pair: int, row: int) -> bool:
            """True iff the triple misses a pattern of the set.  A closure,
            so that hot loops pay for one plain call per triple."""
            return (pair & row) + k & h != h

        self.deficient = deficient
        self._k, self._h = k, h
        self._missing: dict[int, frozenset[Pattern]] = {}

    def row(self, row: int, place: int = 2) -> int:
        """Lane value of a row standing at position place (0, 1 or 2) of
        a triple: the row itself or its complement in every lane."""
        zero, one = self._feet[place]
        return row * one | (row ^ self.full) * zero

    def pair(self, a: int, b: int) -> int:
        """Lane value of the first two rows of a triple."""
        return self.row(a, 0) & self.row(b, 1)

    def missing(self, pair: int, row: int) -> frozenset[Pattern]:
        """The patterns the triple misses: those whose lanes carry nothing
        into their guard bits.  A pattern set of size P has at most 2^P
        answers, so each is built once."""
        guards = (pair & row) + self._k & self._h
        found = self._missing.get(guards)
        if found is None:
            guard = self.width - 1
            found = self._missing[guards] = frozenset(
                pattern
                for t, pattern in enumerate(self.patterns)
                if not guards >> (t * self.width + guard) & 1
            )
        return found


def _as_packed(row: int | str | Sequence[int], n: int | None) -> tuple[int, int]:
    """Coerce a row given as packed int, bit string, or 0/1 sequence."""
    if isinstance(row, int):
        if n is None:
            raise ValueError("packed integer rows need an explicit column count")
        return row, n
    packed = pack_row(row)
    return packed, len(row)


def triple_coverage(
    row_a: int | str | Sequence[int],
    row_b: int | str | Sequence[int],
    row_c: int | str | Sequence[int],
    patterns: PatternSet = GEKR,
    n: int | None = None,
) -> frozenset[Pattern]:
    """Patterns of the set that the ordered triple fails to realize."""
    a, na = _as_packed(row_a, n)
    b, nb = _as_packed(row_b, n)
    c, nc = _as_packed(row_c, n)
    if not na == nb == nc:
        raise ValueError(f"row lengths differ: {na}, {nb}, {nc}")
    lanes = Lanes(patterns, na)
    return lanes.missing(lanes.pair(a, b), lanes.row(c))


def triples_through(m: int, triple: tuple[int, int, int] | None) -> int:
    """How many increasing triples from range(m) a lexicographic scan
    tests up to and including triple: its zero-based rank plus one, or
    all comb(m, 3) when triple is None."""
    if triple is None:
        return comb(m, 3)
    i, j, l = triple
    return comb(m, 3) - comb(m - i, 3) + comb(m - i - 1, 2) - comb(m - j, 2) + (l - j)


def _padded(c: int) -> int:
    return -(-max(c, 0) // PAD) * PAD


def _set_slots(bits: int, slot: int, base: int) -> Iterator[int]:
    """base plus the index of each slot holding a set bit, lowest first."""
    while bits:
        skip = ((bits & -bits).bit_length() - 1) // slot
        yield base + skip
        bits >>= (skip + 1) * slot
        base += skip + 1


class TripleScan:
    """Deficient triples of m rows, some of which may be replaced between
    searches.  The lane values of every row at each place of a triple,
    and the blocks of the module docstring, are computed once and kept;
    ValueError if the blocks would pass MAX_BLOCK_BYTES.

    scan is the lexicographic forward loop.  first and replace make it
    incremental for a resampling loop such as Moser-Tardos.  They keep a
    cursor, the first triple not yet known to be clean, and found, the
    deficient triples before it; every other triple before the cursor is
    clean.  first returns min(found), or runs scan from the cursor until
    it meets a deficient triple.  replace patches the blocks, drops the
    found triples that hold a replaced row and tests again every triple
    before the cursor that holds one, about 3 m^2 / 2 of them for three
    rows.  Either way the answer is the lexicographically first deficient
    triple of the current rows, as first_deficient_triple would give, and
    only the first full pass costs comb(m, 3) tests.  checked counts the
    tests made.
    """

    def __init__(self, rows: Sequence[int], n: int, patterns: PatternSet = GEKR) -> None:
        lanes = self.lanes = Lanes(patterns, n)
        m = self.m = len(rows)
        slot = self.slot = len(lanes.patterns) * lanes.width
        top = self._top = _padded(m - 2)  # slots of block 1, the longest scanned
        # Blocks 1 to m - 2, then K and H for every padded length; CPython
        # keeps 30 bits in 4 bytes.
        slots = sum(map(_padded, range(1, m - 1))) + top * (top // PAD + 1)
        if (need := slots * slot // 30 * 4) > MAX_BLOCK_BYTES:
            raise ValueError(f"{m} rows need {need} bytes, past the limit of {MAX_BLOCK_BYTES}")
        self.firsts = [lanes.row(row, 0) for row in rows]
        self.seconds = [lanes.row(row, 1) for row in rows]
        self.thirds = [lanes.row(row) for row in rows]
        self._feet = ((1 << top * slot) - 1) // ((1 << slot) - 1)  # x * feet: x in every slot
        # Every third in its slot, then full lanes for the padding.
        self._tape = sum(t << l * slot for l, t in enumerate(self.thirds + [lanes._k] * PAD))
        feet = (self._feet >> (top - c) * slot for c in range(0, top + 1, PAD))
        carry = [(lanes._k * f, lanes._h * f) for f in feet]
        # _blocks[j]: block j with the K and H of its padded length; j = 0
        # has no block, since a scanned triple has j > i >= 0.
        self._blocks = [
            (self._block(j), *carry[_padded(m - 1 - j) // PAD]) if j else (0, 0, 0)
            for j in range(m - 1)
        ]
        self.cursor = (0, 0, 0)  # scan reads this as the first triple, (0, 1, 2)
        self.found: set[tuple[int, int, int]] = set()
        self.checked = 0
        self._passed = 0  # triples before the cursor

    def _block(self, j: int) -> int:
        slots = _padded(self.m - 1 - j)
        spread = self.seconds[j] * (self._feet >> (self._top - slots) * self.slot)
        return spread & self._tape >> (j + 1) * self.slot

    def scan(
        self, start: tuple[int, int, int], stop_early: bool
    ) -> list[tuple[int, int, int, frozenset[Pattern]]]:
        """Deficient triples from start (inclusive) on, in lexicographic
        order.  start need not be an increasing triple: (i, 0, 0) begins
        at the first triple of row i."""
        m, slot, lanes = self.m, self.slot, self.lanes
        firsts, seconds, thirds = self.firsts, self.seconds, self.thirds
        blocks, feet = self._blocks, self._feet
        hits: list[tuple[int, int, int, frozenset[Pattern]]] = []
        i_start, j_from, l_from = start
        for i in range(i_start, m - 2):
            spread = firsts[i] * feet
            for j in range(max(j_from, i + 1), m - 1):
                block, k, h = blocks[j]
                guards = (spread & block) + k & h
                if guards != h:
                    pair = firsts[i] & seconds[j]
                    for l in _set_slots(h ^ guards, slot, j + 1):
                        if l >= m:
                            break  # padding, see the module docstring
                        if l >= l_from:
                            hits.append((i, j, l, lanes.missing(pair, thirds[l])))
                            if stop_early:
                                return hits
                l_from = 0
            j_from = l_from = 0
        return hits

    def first(self) -> tuple[int, int, int] | None:
        """Lexicographically first deficient triple of the current rows."""
        if not self.found:
            hits = self.scan(self.cursor, True)
            hit = hits[0][:3] if hits else None
            passed = triples_through(self.m, hit)
            self.checked += passed - self._passed
            self._passed = passed
            if hit is None:
                self.cursor = (self.m, 0, 0)
                return None
            self.found.add(hit)
            self.cursor = (hit[0], hit[1], hit[2] + 1)
        return min(self.found)

    def replace(self, rows: dict[int, int]) -> None:
        """Put in new rows by index and bring the blocks (slot r - j - 1 of
        each block j < r, and block r) and found up to date."""
        lanes, slot, blocks = self.lanes, self.slot, self._blocks
        for r, row in rows.items():
            third = lanes.row(row)
            change = third ^ self.thirds[r]
            self.firsts[r] = lanes.row(row, 0)
            self.seconds[r] = lanes.row(row, 1)
            self.thirds[r] = third
            self._tape ^= change << r * slot
            for j in range(1, r):
                block, k, h = blocks[j]
                blocks[j] = (block ^ (self.seconds[j] & change) << (r - j - 1) * slot, k, h)
        for r in rows:
            if 0 < r < self.m - 1:
                blocks[r] = (self._block(r), *blocks[r][1:])
        self.found = {t for t in self.found if rows.keys().isdisjoint(t)}
        for r in rows:
            self._rescan(r)

    def _rescan(self, r: int) -> None:
        """Test every triple before the cursor that holds row r, at each
        of its three places, adding the deficient ones to found.  A triple
        holding two replaced rows is tested once for each.  Two of the
        three lane values are ANDed outside the inner loop; the AND is
        commutative, so which two does not matter."""
        m, deficient, found = self.m, self.lanes.deficient, self.found
        firsts, seconds, thirds = self.firsts, self.seconds, self.thirds
        ci, cj, cl = self.cursor
        tested = 0
        # (r, j, l) and (i, r, l): l runs up to the cursor's bound for (i, j).
        heads = itertools.chain(
            ((r, j) for j in range(r + 1, m - 1 if r <= ci else 0)),
            ((i, r) for i in range(min(r, ci + 1))),
        )
        for i, j in heads:
            pair = firsts[i] & seconds[j]
            stop = m if (i, j) < (ci, cj) else cl if (i, j) == (ci, cj) else 0
            for l in range(j + 1, stop):
                if deficient(pair, thirds[l]):
                    found.add((i, j, l))
            tested += max(stop - j - 1, 0)
        # (i, j, r): j runs up to r, or to the cursor's bound when i == ci.
        third = thirds[r]
        for i in range(min(r - 1, ci + 1)):
            pair = firsts[i] & third
            stop = r if i < ci else min(r, cj + (r < cl))
            for j in range(i + 1, stop):
                if deficient(pair, seconds[j]):
                    found.add((i, j, r))
            tested += max(stop - i - 1, 0)
        self.checked += tested


def find_deficient(
    array: ArrayMatrix, patterns: PatternSet = GEKR, stop_early: bool = False
) -> DeficiencyReport:
    """Scan all increasing row triples of the array for deficiency, in
    lexicographic (i, j, l) order.  With stop_early the scan returns
    after the first deficient triple; total_checked is then its rank plus
    one.  ValueError if the blocks would pass MAX_BLOCK_BYTES.
    """
    m = array.m
    hits = TripleScan(array.rows, array.n, patterns).scan((0, 0, 0), stop_early)
    checked = triples_through(m, hits[0][:3] if stop_early and hits else None)
    return DeficiencyReport(
        deficient=tuple((i, j, l) for i, j, l, _ in hits),
        missing=tuple(miss for _, _, _, miss in hits),
        total_checked=checked,
    )


def find_deficient_naive(
    array: ArrayMatrix, patterns: PatternSet = GEKR
) -> DeficiencyReport:
    """Reference implementation: expand rows to 0/1 tuples and collect
    the realized pattern of every column of every triple.  No bitwise
    shortcuts; exists to cross-check the fast scan.
    """
    bits = [array.row_bits(i) for i in range(array.m)]
    wanted = set(patterns.members)
    deficient = []
    missing = []
    for i, j, l in itertools.combinations(range(array.m), 3):
        seen = {(bits[i][col], bits[j][col], bits[l][col]) for col in range(array.n)}
        gap = wanted - seen
        if gap:
            deficient.append((i, j, l))
            missing.append(frozenset(gap))
    return DeficiencyReport(
        deficient=tuple(deficient),
        missing=tuple(missing),
        total_checked=comb(array.m, 3),
    )


def first_deficient_triple(
    rows: Sequence[int], n: int, patterns: PatternSet = GEKR
) -> tuple[int, int, int] | None:
    """Lexicographically first deficient triple of packed rows, or None,
    from one forward scan.  A loop that replaces rows between searches
    keeps a TripleScan instead, which rescans only what changed.
    """
    return TripleScan(rows, n, patterns).first()


def is_gekr(array: ArrayMatrix) -> bool:
    """True iff no row triple of the array is GEKR-deficient."""
    return first_deficient_triple(array.rows, array.n) is None
