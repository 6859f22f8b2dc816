"""Shared vocabulary: binary arrays, pattern sets, model parameters, and
quantities too large for floating point.

Rows of a binary array are stored as Python integers with bit j holding
column j (least significant bit is column 0).  Python integers are
arbitrary precision, so a row is a single machine object regardless of
the number of columns, and bitwise AND/OR/XOR act on all columns at once.
"""

from __future__ import annotations

import math
import re
from enum import Enum
from fractions import Fraction
from functools import total_ordering
from typing import Iterator

Pattern = tuple[int, int, int]


class Record:
    """An immutable record whose fields are the names in its class's
    __slots__, in order: built from them by position or keyword, then
    checked by __post_init__; equal and hashed as the tuple of its field
    values, within one class.  A subclass gives a field a default through
    an __init__ of its own, as ModelParams does for r.

    The records that the bounds, verify and maxfamily commands build are
    these, not dataclasses, so that those commands never import
    dataclasses and, through it, inspect: a sizable share of their
    start-up, for no feature they use.
    """

    __slots__ = ()

    def __init__(self, *values: object, **named: object) -> None:
        names = self.__slots__
        if named:
            values += tuple(named.pop(name) for name in names[len(values):] if name in named)
        if len(values) != len(names) or named:
            raise TypeError(f"{type(self).__name__} takes the fields {names}, each once, by position or keyword")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign {name!r}: a {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: a {type(self).__name__} is immutable")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._values()


_ALL_PATTERNS = frozenset(
    (a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)
)


class PatternSet(Record):
    """A set of length-3 binary column patterns.

    A triple of rows "covers" pattern (a, b, c) when some column reads a
    in the first row, b in the second, and c in the third.  A triple that
    misses at least one pattern of the set is called deficient.
    """

    __slots__ = ("members",)
    members: frozenset[Pattern]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("pattern set must be non-empty")
        if not self.members <= _ALL_PATTERNS:
            bad = sorted(self.members - _ALL_PATTERNS)
            raise ValueError(f"not binary length-3 patterns: {bad}")

    def __iter__(self) -> Iterator[Pattern]:
        return iter(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, pattern: object) -> bool:
        return pattern in self.members

    @classmethod
    def from_text(cls, text: str) -> "PatternSet":
        """Parse a comma-separated list such as "011,101,110,111"."""
        members = set()
        for token in text.split(","):
            token = token.strip()
            if len(token) != 3 or any(ch not in "01" for ch in token):
                raise ValueError(f"bad pattern {token!r}: want three 0/1 chars")
            members.add((int(token[0]), int(token[1]), int(token[2])))
        return cls(frozenset(members))


#: The pattern set whose covering arrays generalize the Erdos-Ko-Rado
#: intersection conditions: every row triple must show a common 1-column
#: and, for each pair of rows, a column where exactly that pair has 1s.
GEKR = PatternSet(frozenset({(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)}))


def gekr_patterns(n: int, weight: int | None) -> PatternSet:
    """The GEKR patterns that a triple of rows over n columns can miss.
    Three rows of weight r share at least 3r - 2n columns, so when every
    row has weight r and 3r > 2n, no triple misses 111
    (bounds.sigma1 is 0 there) and only 011, 101 and 110 need testing."""
    if weight is not None and 3 * weight > 2 * n:
        return PatternSet(GEKR.members - {(1, 1, 1)})
    return GEKR


@total_ordering
class LogMagnitude(Record):
    """A non-negative real carried as its base-10 logarithm.

    Row-count bounds routinely exceed 10^30000, far beyond float range,
    so we never materialize the value itself.  Zero is log10 = -inf,
    which orders below every positive value.
    """

    __slots__ = ("log10",)
    log10: float

    def __post_init__(self) -> None:
        if math.isnan(self.log10):
            raise ValueError("log10 must not be NaN")

    def __lt__(self, other: LogMagnitude) -> bool:
        return self.log10 < other.log10 if type(other) is LogMagnitude else NotImplemented

    @property
    def is_zero(self) -> bool:
        return self.log10 == -math.inf

    @classmethod
    def zero(cls) -> "LogMagnitude":
        return cls(-math.inf)

    @classmethod
    def from_fraction(cls, value: Fraction) -> "LogMagnitude":
        """Exact rational to log magnitude; safe for huge numerators."""
        if value < 0:
            raise ValueError(f"magnitude must be non-negative, got {value}")
        if value == 0:
            return cls.zero()
        # math.log10 accepts arbitrarily large ints without overflow.
        return cls(math.log10(value.numerator) - math.log10(value.denominator))

    def scientific(self) -> tuple[float, int]:
        """Mantissa in [1, 10) and exponent, mantissa rounded to three
        significant digits.  Rounding that reaches 10.0 bumps the
        exponent instead, so 9.998 becomes (1.0, e+1).
        """
        if self.is_zero:
            raise ValueError("zero has no scientific mantissa/exponent")
        exponent = math.floor(self.log10)
        mantissa = 10.0 ** (self.log10 - exponent)
        mantissa = round(mantissa, 2)
        if mantissa >= 10.0:
            mantissa /= 10.0
            exponent += 1
        return mantissa, exponent


def render_magnitude(value: LogMagnitude) -> str:
    """Format as "2.26e289", three significant digits; zero is "0"."""
    if value.is_zero:
        return "0"
    mantissa, exponent = value.scientific()
    return f"{mantissa:.2f}e{exponent}"


class Strategy(Enum):
    """How construct.run builds an array; the values are the CLI's
    --strategy choices."""

    REJECTION = "rejection"
    MOSER_TARDOS = "moser-tardos"
    GREEDY = "greedy"


class ModelParams(Record):
    """Column count plus the row distribution.

    With r set, the model is fixed-weight: every row has exactly r ones,
    and alpha is r/n.  Without it, each entry is 1 independently with
    probability alpha.  alpha is kept as an exact Fraction so that
    r = alpha * n holds without rounding concerns.
    """

    __slots__ = ("n", "alpha", "r")
    n: int
    alpha: Fraction
    r: int | None

    def __init__(self, n: int, alpha: Fraction, r: int | None = None) -> None:
        super().__init__(n, alpha, r)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one column, got n={self.n}")
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.r is not None:
            if not 0 < self.r <= self.n:
                raise ValueError(f"need 0 < r <= n, got r={self.r}, n={self.n}")
            if self.alpha != Fraction(self.r, self.n):
                raise ValueError(
                    f"alpha={self.alpha} does not equal r/n={self.r}/{self.n}"
                )

    @classmethod
    def independent(cls, alpha: Fraction | float | str, n: int) -> "ModelParams":
        return cls(n=n, alpha=Fraction(alpha))

    @classmethod
    def fixed_weight(cls, n: int, r: int) -> "ModelParams":
        return cls(n=n, alpha=Fraction(r, n), r=r)


class ArrayMatrix(Record):
    """A binary array: m rows over n columns, rows as packed integers."""

    __slots__ = ("n", "rows")
    n: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need at least one column, got n={self.n}")
        limit = 1 << self.n
        for i, row in enumerate(self.rows):
            if not 0 <= row < limit:
                raise ValueError(f"row {i} does not fit in {self.n} columns")

    @property
    def m(self) -> int:
        return len(self.rows)

    def weights(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.rows)

    def row_bits(self, i: int) -> tuple[int, ...]:
        """Row i as a tuple of 0/1 column values."""
        return tuple(map(int, format(self.rows[i], f"0{self.n}b")[::-1]))

    def to_text(self) -> str:
        """Render as one '0'/'1' line per row, LF-terminated; no rows
        render as the empty string."""
        return "".join(format(row, f"0{self.n}b")[::-1] + "\n" for row in self.rows)


def pack_row(bits: str) -> int:
    """Pack a '0'/'1' string, column 0 first, into a row integer."""
    bad = bits.replace("0", "").replace("1", "")
    if bad:
        raise ValueError(f"bad character {bad[0]!r} in row")
    return int(bits[::-1], 2) if bits else 0


def parse_array(text: str) -> ArrayMatrix:
    """Parse the textual array format.

    One row per line of '0'/'1' characters; lines starting with '#' are
    comments; blank lines and CR before LF are ignored.  All rows must
    have the same length.
    """
    rows: list[int] = []
    n: int | None = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.rstrip("\r").strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            n = len(line)
        elif len(line) != n:
            raise ValueError(
                f"line {lineno}: row length {len(line)} != {n} of first row"
            )
        rows.append(pack_row(line))
    if n is None:
        raise ValueError("no rows: input is empty or all comments")
    return ArrayMatrix(n=n, rows=tuple(rows))


class DeficiencyReport(Record):
    """Outcome of scanning an array's row triples against a pattern set.

    deficient lists the offending (i, j, l) index triples, i < j < l in
    lexicographic order, and missing[t] holds the patterns triple t
    fails to cover.  total_checked counts the triples examined, all
    comb(m, 3) of them.
    """

    __slots__ = ("deficient", "missing", "total_checked")
    deficient: tuple[tuple[int, int, int], ...]
    missing: tuple[frozenset[Pattern], ...]
    total_checked: int

    def __post_init__(self) -> None:
        if len(self.deficient) != len(self.missing):
            raise ValueError("deficient and missing must run in parallel")

    @property
    def deficient_count(self) -> int:
        return len(self.deficient)

    @property
    def ok(self) -> bool:
        return not self.deficient


#: The exponent of a decimal, in the grammar of Fraction(text).
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\Z")


def parse_alpha(text: str) -> Fraction:
    """Parse a density in (0, 1] that the float formulas do not read as 0
    (1e-400 they do): a decimal such as "0.5" or "1e-5", or a fraction
    such as "2/3".

    Fraction(text) would compute 10**exponent exactly, which for
    "1e-30000000" takes minutes.  So the rest of a decimal is parsed
    first, by Fraction with exponent 0, and the exponent is then cut to
    len(text) + 400 either way.  The rest, nonzero, lies between
    10**-len(text) and 10**len(text), so the cut value stays on the same
    side of 1 and of the smallest float, and is refused whenever it
    differs from the true one.
    """
    raw, text = text, text.strip()
    found = _EXPONENT.search(text)
    try:
        if found is None:
            value = Fraction(text)
        else:
            try:
                value = Fraction(text[: found.start(1)] + "0")
            except ValueError:  # then Fraction(text) fails as fast, with its own message
                value = Fraction(text)
            cut = len(text) + 400
            value *= Fraction(10) ** max(-cut, min(int(found[1]), cut))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad density {text!r}: {exc}") from None
    if not 0 < value <= 1:
        raise ValueError(f"density must be in (0, 1], got {raw}")
    if float(value) == 0.0:
        raise ValueError(f"density {raw} underflows a float (smallest positive 5e-324)")
    return value
