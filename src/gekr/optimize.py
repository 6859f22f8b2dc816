"""Density tuning: which alpha maximizes the guaranteed row count.

Maximizing the row bound means minimizing the deficiency probability
(independent model) or the decay base mu (fixed-weight asymptotics).
Both objectives are smooth with a single interior minimum, so each
optimizer finds the argmin of one grid over (0, 1) coarse then fine,
reading f at about 3 sqrt(len) of the grid's points, and refines it by
golden-section search between that point's neighbours.  The coarse scan
gives the full scan's argmin because the objective has a single local
minimum on the grid; tests/test_optimize.py checks the bits against a
full scan.
"""

from __future__ import annotations

import math
from typing import Callable

from .bounds import asymptotic_profile, discriminant_lead, p_independent
from .core import LogMagnitude, Record

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_section(f: Callable[[float], float], a: float, b: float) -> float:
    """Minimize a unimodal f on [a, b] to within 1e-6; returns the
    midpoint of the final bracket."""
    if not a < b:
        raise ValueError(f"need a < b, got [{a}, {b}]")
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-6:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return (a + b) / 2.0


class _Grid:
    """Float grid a, a + step, ... without cumulative drift, ending at b
    when step divides b - a and otherwise at the last point below b.
    The tolerance keeps b when (b - a) / step falls just short of a whole
    number by rounding.  A point is computed when it is read, so a search
    that reads a few hundred of 9,999 points pays for no more."""

    def __init__(self, a: float, b: float, step: float) -> None:
        self.a, self.step = a, step
        self.indices = range(math.floor((b - a) / step + 1e-9) + 1)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, k: int) -> float:
        return round(self.a + self.indices[k] * self.step, 12)


def _refine(
    f: Callable[[float], float], grid: _Grid, lo_clip: float, hi_clip: float
) -> float:
    """Argmin of f over the grid, which lies inside (lo_clip, hi_clip),
    then golden-section between its neighbours, or a clip at an end.

    The argmin is found coarse then fine: f at every s-th point, s the
    integer square root of the grid's length, then at each point within
    s of the coarse argmin, about 3 sqrt(len) evaluations in all.  That
    is the first argmin of the full grid when f has a single local
    minimum on it, falling then rising, as both optimizers' objectives
    do; ties go to the first point, as in a full scan.
    """
    stride = math.isqrt(len(grid))
    coarse = min(range(0, len(grid), stride), key=lambda j: f(grid[j]))
    window = range(max(coarse - stride, 0), min(coarse + stride + 1, len(grid)))
    k = min(window, key=lambda j: f(grid[j]))
    lo = grid[k - 1] if k > 0 else lo_clip
    hi = grid[k + 1] if k + 1 < len(grid) else hi_clip
    return golden_section(f, lo, hi)


def argmin_independent(n: int) -> tuple[float, LogMagnitude]:
    """Density minimizing the independent-model deficiency probability
    at the given column count, with the probability at the optimum.
    The minimizer tends to 2/3 as n grows.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")

    def objective(alpha: float) -> float:
        return p_independent(alpha, n).log10

    alpha_star = _refine(objective, _Grid(0.001, 0.999, 0.001), 1e-9, 1.0 - 1e-9)
    return alpha_star, p_independent(alpha_star, n)


def argmin_mu() -> tuple[float, float]:
    """Density minimizing the fixed-weight decay base mu, with the
    minimal mu, from a 1e-4 grid over (0, 1), scanned coarse then fine:
    mu at every 99th of its 9,999 points, then at the 199 around the
    best, 315 evaluations with the refinement.  That finds the
    grid's argmin because mu falls, then rises, with one local minimum
    on the grid (at its point 7,394).  The minimum lies where the
    pairwise sum dominates (alpha > 1/2): below, mu is least at
    alpha = 1/2, where it reads 0.8325, against 0.7764 at the optimum.
    """

    def mu_of(alpha: float) -> float:
        return asymptotic_profile(alpha).mu

    alpha_star = _refine(mu_of, _Grid(1e-4, 1.0 - 1e-4, 1e-4), 1e-9, 1.0)
    return alpha_star, mu_of(alpha_star)


class FigureTable(Record):
    """Columnar data behind one of the four reference plots; cells are
    floats or None where a quantity is undefined."""

    __slots__ = ("columns", "rows")
    columns: tuple[str, ...]
    rows: tuple[tuple[float | None, ...], ...]


def _term_range_fractions(alpha: float) -> tuple[float, float]:
    """Admissible-u endpoints of the triple-intersection sum, as
    fractions of n: max(0, 2 alpha - 1) and min(alpha, 1 - alpha)."""
    return max(0.0, 2.0 * alpha - 1.0), min(alpha, 1.0 - alpha)


def figure_data(figure: int, grid_step: float = 0.005) -> FigureTable:
    """Data for reference figure 1, 2, 3, or 4.

    1: admissible range and dominant-term location of the
       triple-intersection sum, against alpha in [0, 1).
    2: dominant-term location and upper ratio root of the pairwise
       sum, with the lines alpha and 2 alpha - 1, on (0, 1].
    3: both decay bases xi and theta on [0, 1].
    4: theta near its minimum, on [0.70, 0.78].
    """
    if not 1e-4 <= grid_step <= 0.1:  # at most 10,001 rows
        raise ValueError(f"grid_step must be in [1e-4, 0.1], got {grid_step}")

    if figure == 1:
        columns = ("alpha", "lower_limit", "upper_limit", "u1_over_n", "u2_over_n")
        rows = []
        for alpha in _Grid(0.0, 1.0 - grid_step, grid_step):
            lo, hi = _term_range_fractions(alpha)
            # e(alpha) >= 0 on all of [0, 1), so both curves exist here.
            root = math.sqrt(discriminant_lead(alpha))
            u1 = (1.0 - alpha * alpha - root) / (2.0 - 2.0 * alpha)
            u2 = (1.0 - alpha * alpha + root) / (2.0 - 2.0 * alpha)
            rows.append((alpha, lo, hi, u1, u2))
        return FigureTable(columns=columns, rows=tuple(rows))

    if figure == 2:
        columns = ("alpha", "v1_over_n", "v2_over_n", "alpha_line", "two_alpha_minus_1")
        rows = []
        for alpha in _Grid(grid_step, 1.0, grid_step):
            prof = asymptotic_profile(alpha)
            radicand = (
                5.0 * alpha**4 - 12.0 * alpha**3 + 10.0 * alpha**2 - 4.0 * alpha + 1.0
            )
            root = math.sqrt(max(radicand, 0.0))
            v2 = (3.0 * alpha * alpha + 1.0 - 2.0 * alpha + root) / (2.0 * alpha)
            rows.append((alpha, prof.kappa, v2, alpha, 2.0 * alpha - 1.0))
        return FigureTable(columns=columns, rows=tuple(rows))

    if figure == 3:
        columns = ("alpha", "xi", "theta")
        rows = []
        for alpha in _Grid(0.0, 1.0, grid_step):
            if alpha == 0.0:
                rows.append((alpha, 1.0, None))
                continue
            prof = asymptotic_profile(alpha)
            rows.append((alpha, prof.xi, prof.theta))
        return FigureTable(columns=columns, rows=tuple(rows))

    if figure == 4:
        columns = ("alpha", "theta")
        rows = []
        for alpha in _Grid(0.70, 0.78, grid_step):
            prof = asymptotic_profile(alpha)
            rows.append((alpha, prof.theta))
        return FigureTable(columns=columns, rows=tuple(rows))

    raise ValueError(f"figure must be 1, 2, 3, or 4, got {figure}")
