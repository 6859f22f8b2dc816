"""Deficiency scanning: which row triples miss a required pattern.

For a triple (x, y, z) and pattern (a, b, c), the columns realizing the
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
((pair & row) + K) & H != H, which is Lanes.deficient.

With two rows fixed, many thirds are tested per operation.  Slot s of
an integer holds a lane value at bits s*S.. of S = P*w bits, for P
patterns; a tape (Lanes.tape) holds lane values in consecutive slots.
With feet, K and H repeated per slot (Lanes.carry), a lane value spread
over a tape tests every slot at once, ((value * feet & tape) + K) & H
!= H, and Lanes.clear decodes the clear guard bits, lowest slot first.
TripleScan keeps block j, seconds[j] & thirds[l] in slot l - j - 1 for
each l > j, and a tape of seconds for the triples (i, j, r) of fixed i
and r; the blocks take about comb(m, 2) * S bits, at most MAX_BLOCK_BYTES.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Iterator, Sequence

from .core import GEKR, ArrayMatrix, DeficiencyReport, Pattern, PatternSet

#: Slot counts are padded to a multiple of PAD, so K and H are kept for
#: multiples of PAD slots only.
PAD = 16
#: Most bytes that the blocks, tapes and carry constants of a TripleScan may take.
MAX_BLOCK_BYTES = 1 << 30


def _padded(c: int) -> int:
    return -(-max(c, 0) // PAD) * PAD


def _set_slots(bits: int, slot: int, base: int, stop: int) -> Iterator[int]:
    """base plus the index of each slot holding a set bit, below stop."""
    while bits:
        skip = ((bits & -bits).bit_length() - 1) // slot
        base += skip
        if base >= stop:
            return
        yield base
        bits >>= (skip + 1) * slot
        base += 1


class Lanes:
    """Lane packing of one pattern set over n columns, and its slots."""

    def __init__(self, patterns: PatternSet, n: int) -> None:
        self.patterns = tuple(patterns)
        self.width = n + 1
        self.slot = len(self.patterns) * self.width
        self.full = (1 << n) - 1
        # _feet[place][bit]: bit 0 of every lane whose pattern reads `bit`
        # at position `place`; multiplying a row by it copies the row there.
        self._feet = [[0, 0], [0, 0], [0, 0]]
        for t, pattern in enumerate(self.patterns):
            for place, bit in enumerate(pattern):
                self._feet[place][bit] |= 1 << (t * self.width)
        feet = self._feet[0][0] | self._feet[0][1]
        self._k, self._h = self.full * feet, feet << n
        self._missing: dict[int, frozenset[Pattern]] = {}
        self._carry: dict[int, tuple[int, int, int]] = {}

    def row(self, row: int, place: int = 2) -> int:
        """Lane value of a row standing at position place (0, 1 or 2) of
        a triple: the row itself or its complement in every lane."""
        zero, one = self._feet[place]
        return row * one | (row ^ self.full) * zero

    def pair(self, a: int, b: int) -> int:
        """Lane value of the first two rows of a triple."""
        return self.row(a, 0) & self.row(b, 1)

    def deficient(self, pair: int, row: int) -> bool:
        """True iff the triple misses a pattern of the set: the one-triple
        definition that the slot tests are checked against."""
        return (pair & row) + self._k & self._h != self._h

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

    def carry(self, count: int) -> tuple[int, int, int]:
        """(feet, K, H) for count slots, each built once: value * feet
        holds value in every slot, and K and H repeat once per slot."""
        found = self._carry.get(count)
        if found is None:
            found = self._carry[count] = tuple(self._repeat(v, count) for v in (1, self._k, self._h))
        return found

    def _repeat(self, value: int, count: int) -> int:
        """value, at most one slot wide, in each of count slots: doubled
        up by shifted copies, in time linear in the result's size."""
        done = 1
        while done < count:
            value |= value << done * self.slot
            done *= 2
        return value & (1 << count * self.slot) - 1

    def tape(self, values: Sequence[int], count: int) -> int:
        """values[s] in slot s, then up to count slots of full lanes, the AND identity."""
        values = [*values, *[self._k] * (count - len(values))]
        return sum(v << s * self.slot for s, v in enumerate(values))

    def clear(self, value: int, tape: int, count: int, base: int = 0) -> Iterator[int]:
        """base + s for each slot s < count of tape whose lane value,
        ANDed with value, misses a pattern; slots past count are ignored."""
        feet, k, h = self.carry(_padded(count))
        guards = (value * feet & tape) + k & h
        return _set_slots(h ^ guards, self.slot, base, base + count)


def scan_bytes(m: int, n: int, patterns: PatternSet = GEKR) -> int:
    """Bytes that a TripleScan of m rows over n columns takes: blocks 1
    to m - 2, K and H for every padded length, and the two tapes, with
    30 bits in 4 bytes as CPython keeps them.  ValueError if they pass
    MAX_BLOCK_BYTES."""
    top = _padded(m - 2)  # slots of block 1, the longest scanned
    # The slots of blocks 1 to m - 2, sum(map(_padded, range(1, m - 1))), in closed form.
    a, b = divmod(max(m - 2, 0), PAD)
    slots = PAD * (PAD * a * (a + 1) // 2 + b * (a + 1)) + top * (top // PAD + 1) + 2 * m
    if (need := slots * len(patterns) * (n + 1) // 30 * 4) > MAX_BLOCK_BYTES:
        raise ValueError(f"{m} rows need {need} bytes, past the limit of {MAX_BLOCK_BYTES}")
    return need


def triples_through(m: int, triple: tuple[int, int, int] | None) -> int:
    """How many increasing triples from range(m) a lexicographic scan
    tests up to and including triple: its zero-based rank plus one, or
    all comb(m, 3) when triple is None."""
    if triple is None:
        return comb(m, 3)
    i, j, l = triple
    return comb(m, 3) - comb(m - i, 3) + comb(m - i - 1, 2) - comb(m - j, 2) + (l - j)


class TripleScan:
    """Deficient triples of m rows, some of which may be replaced between
    searches, with the blocks and tapes of the module docstring kept;
    ValueError if they would pass MAX_BLOCK_BYTES.

    scan is the lexicographic forward loop.  first and replace make it
    incremental for a resampling loop such as Moser-Tardos.  They keep a
    cursor, the first triple not yet known to be clean, and found, the
    deficient triples before it; every other triple before the cursor is
    clean.  first returns min(found), or runs scan from the cursor until
    it meets a deficient triple.  replace patches the blocks and tapes,
    drops the found triples that hold a replaced row and tests again
    every triple before the cursor that holds one, about 3 m^2 / 2 of
    them for three rows.  Either way the answer is the lexicographically
    first deficient triple of the current rows, as first_deficient_triple
    would give, and only the first full pass costs comb(m, 3) tests.
    checked counts the tests made.
    """

    def __init__(self, rows: Sequence[int], n: int, patterns: PatternSet = GEKR) -> None:
        scan_bytes(len(rows), n, patterns)
        lanes = self.lanes = Lanes(patterns, n)
        m = self.m = len(rows)
        self.firsts = [lanes.row(row, 0) for row in rows]
        self.seconds = [lanes.row(row, 1) for row in rows]
        self.thirds = [lanes.row(row) for row in rows]
        self._second_tape = lanes.tape(self.seconds, m + PAD)
        self._third_tape = lanes.tape(self.thirds, m + PAD)
        # j = 0 has no block, since a scanned triple has j > i >= 0.
        self._blocks = [self._block(j) if j else (0, 0, 0) for j in range(m - 1)]
        self.cursor = (0, 0, 0)  # scan reads this as the first triple, (0, 1, 2)
        self.found: set[tuple[int, int, int]] = set()
        self.checked = 0
        self._passed = 0  # triples before the cursor

    def _block(self, j: int) -> tuple[int, int, int]:  # with its K and H
        feet, k, h = self.lanes.carry(_padded(self.m - 1 - j))
        return self.seconds[j] * feet & self._third_tape >> (j + 1) * self.lanes.slot, k, h

    def scan(
        self, start: tuple[int, int, int], stop_early: bool
    ) -> list[tuple[int, int, int, frozenset[Pattern]]]:
        """Deficient triples from start (inclusive) on, in lexicographic
        order.  start need not be an increasing triple: (i, 0, 0) begins
        at the first triple of row i."""
        m, lanes = self.m, self.lanes
        slot, feet = lanes.slot, lanes.carry(_padded(m - 2))[0]
        firsts, seconds, thirds, blocks = self.firsts, self.seconds, self.thirds, self._blocks
        hits: list[tuple[int, int, int, frozenset[Pattern]]] = []
        i_start, j_from, l_from = start
        for i in range(i_start, m - 2):
            spread = firsts[i] * feet
            for j in range(max(j_from, i + 1), m - 1):
                block, k, h = blocks[j]
                guards = (spread & block) + k & h
                if guards != h:
                    pair = firsts[i] & seconds[j]
                    for l in _set_slots(h ^ guards, slot, j + 1, m):
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
        """Put in new rows by index and bring the tapes, the blocks (slot
        r - j - 1 of each block j < r, and block r) and found up to date."""
        lanes, slot, blocks = self.lanes, self.lanes.slot, self._blocks
        for r, row in rows.items():
            second, third = lanes.row(row, 1), lanes.row(row)
            change = third ^ self.thirds[r]
            self._second_tape ^= (second ^ self.seconds[r]) << r * slot
            self._third_tape ^= change << r * slot
            self.firsts[r] = lanes.row(row, 0)
            self.seconds[r] = second
            self.thirds[r] = third
            for j in range(1, r):
                block, k, h = blocks[j]
                blocks[j] = (block ^ (self.seconds[j] & change) << (r - j - 1) * slot, k, h)
        for r in rows:
            if 0 < r < self.m - 1:
                blocks[r] = self._block(r)
        self.found = {t for t in self.found if rows.keys().isdisjoint(t)}
        for r in rows:
            self._rescan(r)

    def _rescan(self, r: int) -> None:
        """Test every triple before the cursor that holds row r, at each
        of its three places, adding the deficient ones to found.  A triple
        holding two replaced rows is tested once for each."""
        m, lanes, found = self.m, self.lanes, self.found
        firsts, blocks = self.firsts, self._blocks
        ci, cj, cl = self.cursor
        # (r, j, l), (i, r, l): l runs to the cursor's bound; row m - 1 heads no block.
        heads = itertools.chain(
            ((r, j) for j in range(r + 1, m - 1 if r <= ci else 0)),
            ((i, r) for i in range(min(r, ci + 1) if r < m - 1 else 0)),
        )
        for i, j in heads:
            stop = m if (i, j) < (ci, cj) else cl if (i, j) == (ci, cj) else 0
            count = stop - j - 1
            found.update((i, j, l) for l in lanes.clear(firsts[i], blocks[j][0], count, j + 1))
            self.checked += max(count, 0)
        # (i, j, r): j runs up to r, or to the cursor's bound when i == ci.
        third, slot = self.thirds[r], lanes.slot
        for i in range(min(r - 1, ci + 1)):
            stop = r if i < ci else min(r, cj + (r < cl))
            count = stop - i - 1
            seconds = self._second_tape >> (i + 1) * slot
            found.update((i, j, r) for j in lanes.clear(firsts[i] & third, seconds, count, i + 1))
            self.checked += max(count, 0)


def find_deficient(array: ArrayMatrix, patterns: PatternSet = GEKR) -> DeficiencyReport:
    """Scan all increasing row triples of the array for deficiency, in
    lexicographic (i, j, l) order.  ValueError if the blocks would pass
    MAX_BLOCK_BYTES.  TripleScan.first with its checked count gives the
    first deficient triple and its rank instead.
    """
    hits = TripleScan(array.rows, array.n, patterns).scan((0, 0, 0), False)
    return DeficiencyReport(
        deficient=tuple((i, j, l) for i, j, l, _ in hits),
        missing=tuple(miss for _, _, _, miss in hits),
        total_checked=comb(array.m, 3),
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
