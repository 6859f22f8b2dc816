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
patterns; a tape (Lanes.tape) holds lane values in consecutive slots,
with K and H repeated per slot.  Lanes.spread copies a lane value into
every slot by shifted copies, and the guard bits of
((spread & tape) + K) & H test every slot at once: slot s misses a
pattern iff one of its guard bits is clear.  Lanes.misses, the one
carry test the package runs, yields those clear bits for each tape of
a run that misses.  TripleScan keeps, for every row j but the last,
block j: seconds[j] & thirds[l] in slot l - j - 1 for each l > j, so
one test of row x's spread as a first row against block j covers every
triple (x, j, l), and the clear bits of slot l - j - 1 are the patterns
that (x, j, l) misses.  The forward scan tests each row i against the
blocks j > i, and the rescan below a new row against the blocks it
needs.  The blocks take about comb(m, 2) * S bits, at most
MAX_BLOCK_BYTES.

GEKR and {011, 101, 110} are each closed under permuting the three
places, so whether a triple misses a pattern of either set does not
depend on the order of its rows.  The triples that hold row r are then
the {r, j, l} with j < l, both other than r, and the spread of r's lane
value as a first row, tested against block j, covers those whose
smallest other row is j: block 0 serves this and nothing else.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Iterable, Iterator, Sequence

from .core import GEKR, ArrayMatrix, DeficiencyReport, Pattern, PatternSet

#: Slot counts are padded to a multiple of PAD, so K and H are kept for
#: multiples of PAD slots only.
PAD = 16
#: Most bytes that the blocks, tapes and carry constants of a TripleScan may take.
MAX_BLOCK_BYTES = 1 << 30


def _padded(c: int) -> int:
    return -(-max(c, 0) // PAD) * PAD


def _set_slots(bits: int, slot: int, base: int, stop: int) -> Iterator[tuple[int, int]]:
    """(base plus the index, its bits) of each slot holding a set bit, below stop."""
    mask = (1 << slot) - 1
    while bits:
        skip = ((bits & -bits).bit_length() - 1) // slot
        base += skip
        if base >= stop:
            return
        bits >>= skip * slot
        yield base, bits & mask
        bits >>= slot
        base += 1


class Lanes:
    """Lane packing of one pattern set over n columns, and its slots."""

    def __init__(self, patterns: PatternSet, n: int) -> None:
        self.patterns = tuple(patterns)
        self.width = n + 1
        self.slot = len(self.patterns) * self.width
        self.full = (1 << n) - 1
        # _reads[place]: (first bit of lane t, the bit pattern t reads at
        # position place) for every lane t.
        self._reads = [
            [(t * self.width, pattern[place]) for t, pattern in enumerate(self.patterns)]
            for place in range(3)
        ]
        self._guards = [shift + n for shift, _ in self._reads[0]]  # of slot 0
        feet = sum(1 << shift for shift, _ in self._reads[0])
        self._k, self._h = self.full * feet, feet << n
        self._missing: dict[int, frozenset[Pattern]] = {}
        self._carry: dict[int, tuple[int, int]] = {}

    def row(self, row: int, place: int = 2) -> int:
        """Lane value of a row standing at position place (0, 1 or 2) of
        a triple: the row itself or its complement in every lane, put
        there by one shift per lane."""
        value, sel = 0, (row ^ self.full, row)
        for shift, bit in self._reads[place]:
            value |= sel[bit] << shift
        return value

    def deficient(self, pair: int, row: int) -> bool:
        """True iff the triple misses a pattern of the set: the one-triple
        definition that the tests check misses against."""
        return (pair & row) + self._k & self._h != self._h

    def misses(
        self, value: int, tapes: Sequence[tuple[int, int, int]], order: Iterable[int] | None = None
    ) -> Iterator[tuple[int, int]]:
        """(i, the guard bits left clear) for each tape i, taken in order
        (all by default), in which value, spread at least as wide as the
        tape, misses a pattern: one carry test of all its slots at once."""
        for i in range(len(tapes)) if order is None else order:
            tape, k, h = tapes[i]
            guards = (value & tape) + k & h
            if guards != h:
                yield i, h ^ guards

    def missing(self, clear: int) -> frozenset[Pattern]:
        """The patterns that one slot misses, from its clear guard bits
        moved down to slot 0.  A pattern set of size P has at most 2^P
        answers, so each is built once."""
        found = self._missing.get(clear)
        if found is None:
            found = self._missing[clear] = frozenset(
                pattern for pattern, guard in zip(self.patterns, self._guards) if clear >> guard & 1
            )
        return found

    def carry(self, count: int) -> tuple[int, int]:
        """(K, H) repeated once per slot for count slots, each built once."""
        found = self._carry.get(count)
        if found is None:
            found = self._carry[count] = (self.spread(self._k, count), self.spread(self._h, count))
        return found

    def spread(self, value: int, count: int) -> int:
        """value, at most one slot wide, in each of count slots: doubled
        up by shifted copies, in time linear in the result's size."""
        done = 1
        while done < count:
            value |= value << done * self.slot
            done *= 2
        return value & (1 << count * self.slot) - 1

    def pack(self, values: Sequence[int], count: int) -> int:
        """values[s] in slot s, then up to count slots of full lanes, the AND identity."""
        fill = self.spread(self._k, count - len(values)) << len(values) * self.slot
        return sum(v << s * self.slot for s, v in enumerate(values)) | fill

    def tape(self, values: Sequence[int], count: int) -> tuple[int, int, int]:
        """values packed in count slots, with K and H for them, as misses takes it."""
        return (self.pack(values, count), *self.carry(count))

    def put(self, tape: tuple[int, int, int], s: int, values: Sequence[int]) -> tuple[int, int, int]:
        """The tape with values in slots s, s + 1, ..., which held full
        lanes: one XOR of the tape with K ^ value in each, and the tape
        is not packed again."""
        packed, k, h = tape
        fill = sum((self._k ^ v) << i * self.slot for i, v in enumerate(values))
        return (packed ^ fill << s * self.slot, k, h)


def scan_bytes(m: int, n: int, patterns: PatternSet = GEKR) -> int:
    """Bytes that a TripleScan of m rows over n columns takes: blocks 0
    to m - 2, K and H for every padded length, and the tape of thirds,
    m + PAD slots, with 30 bits in 4 bytes as CPython keeps them.
    ValueError if they pass MAX_BLOCK_BYTES.  Fewer than three rows hold
    no triple and keep no blocks."""
    c = m - 1 if m > 2 else 0
    top = _padded(c)  # slots of block 0, the longest
    # The slots of blocks 0 to m - 2, sum(map(_padded, range(1, m))), in closed form.
    a, b = divmod(c, PAD)
    slots = PAD * (PAD * a * (a + 1) // 2 + b * (a + 1)) + top * (top // PAD + 1) + m + PAD
    if (need := slots * len(patterns) * (n + 1) // 30 * 4) > MAX_BLOCK_BYTES:
        raise ValueError(f"{m} rows need {need} bytes, past the limit of {MAX_BLOCK_BYTES}")
    return need


def _before(m: int, cursor: tuple[int, int, int]) -> int:
    """How many increasing triples from range(m) come lexicographically
    before cursor, which may be any triple of naturals."""
    i, j, l = cursor
    if i >= m:
        return comb(m, 3)
    count = comb(m, 3) - comb(m - i, 3)  # (a, b, c) with a < i
    if j <= i:
        return count
    j = min(j, m)
    # (i, b, c) with b < j, then (i, j, c) with c < l.
    return count + comb(m - i - 1, 2) - comb(m - j, 2) + max(min(l, m) - j - 1, 0)


def _without(cursor: tuple[int, int, int], r: int) -> tuple[int, int, int]:
    """The cursor among the rows other than r, renumbered 0, 1, ...: the
    triples that do not hold r keep their order, and exactly those that
    were before the cursor are before the result."""
    out: list[int] = []
    for x in cursor:
        if x == r:  # a triple's row there is before the cursor iff below r
            return (*out, r, 0, 0)[:3]
        out.append(x - (x > r))
    return (out[0], out[1], out[2])


def triples_through(m: int, triple: tuple[int, int, int] | None) -> int:
    """How many increasing triples from range(m) a lexicographic scan
    tests up to and including triple: its zero-based rank plus one, or
    all comb(m, 3) when triple is None."""
    if triple is None:
        return comb(m, 3)
    i, j, l = triple
    return _before(m, (i, j, l + 1))


class TripleScan:
    """Deficient triples of m rows, some of which may be replaced between
    searches, with the blocks of the module docstring kept; ValueError
    if they would pass MAX_BLOCK_BYTES.

    scan tests each row i, spread as a first row, against the blocks
    j > i through Lanes.misses and yields the deficient triples in
    lexicographic order; the rescan of replace tests a new row against
    the blocks its triples before the cursor lie in.  first and replace make
    the scan incremental for a resampling loop such as Moser-Tardos.
    They keep a cursor, the first triple not yet known to be clean, and
    found, the deficient triples before it; every other triple before
    the cursor is clean.  first returns min(found), or the first triple
    that scan yields from the cursor.  replace patches the blocks, drops
    the found triples that hold a replaced row and rescans each new row, as
    the module docstring sets out.  That needs a pattern set closed under
    permuting the places, and replace raises ValueError for any other.
    Either way the answer is the lexicographically first deficient
    triple of the current rows, as first_deficient_triple would give,
    and only the first full pass costs comb(m, 3) tests.  checked counts
    the triples tested: those before the cursor, plus, for each replaced
    row, those before the cursor that hold it.
    """

    def __init__(self, rows: Sequence[int], n: int, patterns: PatternSet = GEKR) -> None:
        scan_bytes(len(rows), n, patterns)
        lanes = self.lanes = Lanes(patterns, n)
        m = self.m = len(rows)
        self.firsts = [lanes.row(row, 0) for row in rows]
        self.seconds = [lanes.row(row, 1) for row in rows]
        self.thirds = [lanes.row(row) for row in rows]
        self._third_tape = lanes.pack(self.thirds, m + PAD)
        self._blocks = [self._block(j) for j in range(m - 1)] if m > 2 else []
        self.cursor = (0, 0, 0)  # scan reads this as the first triple, (0, 1, 2)
        self.found: set[tuple[int, int, int]] = set()
        self.checked = 0

    def _block(self, j: int) -> tuple[int, int, int]:  # with its K and H
        count = _padded(self.m - 1 - j)
        spread = self.lanes.spread(self.seconds[j], count)
        return (spread & self._third_tape >> (j + 1) * self.lanes.slot, *self.lanes.carry(count))

    def scan(
        self, start: tuple[int, int, int]
    ) -> Iterator[tuple[int, int, int, frozenset[Pattern]]]:
        """Deficient triples from start (inclusive) on, in lexicographic
        order, each with the patterns it misses.  start need not be an
        increasing triple: (i, 0, 0) begins at the first triple of row i.
        Block 0 is never read."""
        m, lanes, blocks = self.m, self.lanes, self._blocks
        i_start, j_from, l_from = start
        for i in range(i_start, m - 2):
            spread = lanes.spread(self.firsts[i], _padded(m - 1))
            for j, clear in lanes.misses(spread, blocks, range(max(j_from, i + 1), m - 1)):
                for l, bits in _set_slots(clear, lanes.slot, j + 1, m):
                    if j > j_from or l >= l_from:
                        yield i, j, l, lanes.missing(bits)
            j_from = 0  # below every j from here on

    def first(self) -> tuple[int, int, int] | None:
        """Lexicographically first deficient triple of the current rows."""
        if not self.found:
            m, start = self.m, self.cursor
            hit = next(self.scan(start), None)
            self.cursor = (hit[0], hit[1], hit[2] + 1) if hit else (m, 0, 0)
            self.checked += _before(m, self.cursor) - _before(m, start)
            if hit is None:
                return None
            self.found.add(hit[:3])
        return min(self.found)

    def replace(self, rows: dict[int, int]) -> None:
        """Put in new rows by index and bring the tape, the blocks (slot
        r - j - 1 of each block j < r, and block r) and found up to date."""
        lanes, slot, blocks = self.lanes, self.lanes.slot, self._blocks
        patterns = lanes.patterns
        if any(q not in patterns for p in patterns for q in itertools.permutations(p)):
            raise ValueError(f"replace needs patterns closed under permutation, got {patterns}")
        if not blocks:
            return  # no triple to keep up to date
        for r, row in rows.items():
            third = lanes.row(row)
            change = third ^ self.thirds[r]
            self._third_tape ^= change << r * slot
            self.firsts[r], self.seconds[r], self.thirds[r] = lanes.row(row, 0), lanes.row(row, 1), third
            for j in range(r):
                block, k, h = blocks[j]
                blocks[j] = (block ^ (self.seconds[j] & change) << (r - j - 1) * slot, k, h)
        for r in rows:
            if r < self.m - 1:
                blocks[r] = self._block(r)
        self.found = {t for t in self.found if rows.keys().isdisjoint(t)}
        for r in rows:
            self._rescan(r)

    def _rescan(self, r: int) -> None:
        """Test every triple before the cursor that holds row r, adding
        the deficient ones to found, and count them in checked: the
        triples before the cursor less those without r.  A triple holding
        two replaced rows is tested once for each."""
        m, lanes, found = self.m, self.lanes, self.found
        cursor = ci, cj, _ = self.cursor
        # min(r, j) <= ci for a triple before the cursor, and j <= cj too
        # when r == ci < j.
        stop = m - 1 if r < ci else cj + 1 if r == ci else 0
        spread = lanes.spread(self.firsts[r], _padded(m - 1))
        js = itertools.chain(range(min(r, ci + 1)), range(r + 1, stop))
        for j, clear in lanes.misses(spread, self._blocks, js):
            for l, _ in _set_slots(clear, lanes.slot, j + 1, m):
                # block j < r holds row r itself at l == r
                if l != r and (triple := tuple(sorted((r, j, l)))) < cursor:
                    found.add(triple)
        self.checked += _before(m, cursor) - _before(m - 1, _without(cursor, r))


def find_deficient(array: ArrayMatrix, patterns: PatternSet = GEKR) -> DeficiencyReport:
    """Scan all increasing row triples of the array for deficiency, in
    lexicographic (i, j, l) order.  ValueError if the blocks would pass
    MAX_BLOCK_BYTES.  TripleScan.first with its checked count gives the
    first deficient triple and its rank instead.
    """
    hits = list(TripleScan(array.rows, array.n, patterns).scan((0, 0, 0)))
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
