"""Deficiency probabilities and the row-count bounds they imply.

For a random m-row array, let a "deficient" triple be one missing at
least one of the four GEKR patterns.  If a single triple is deficient
with probability p, the local lemma guarantees a deficiency-free array
exists whenever e * p * (d + 1) <= 1, where d < 3 m^2 / 2 bounds the
number of triples sharing a row with a given one.  Solving gives

    m >= sqrt(2 / (3 e p)) ** 1    (rows guaranteed to exist)

so every routine here reduces to computing p, exactly or in log space,
under one of two row models:

  independent:  each entry is 1 with probability alpha, independently;
  fixed-weight: each row is uniform over weight-r subsets of n columns.

Probabilities small beyond float range are carried as LogMagnitude.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb

from .core import LogMagnitude, Record

#: Euler's number in the local-lemma condition e * p * (d + 1) <= 1.
E_EULER = math.e

#: log10 of sqrt(2 / (3 e)), the constant factor of every row bound.
LOG10_LLL_CONST = 0.5 * math.log10(2.0 / (3.0 * E_EULER))

_LN10 = math.log(10.0)

#: Column count up to which the fixed-weight probability is summed in
#: exact rational arithmetic; beyond it we switch to log-space floats,
#: up to FIXED_LOG_N_LIMIT columns, which bounds the run time and
#: lgamma's absolute error (it grows like n ln n ulps).
EXACT_N_LIMIT = 500
FIXED_LOG_N_LIMIT = 10**7


def _log10_sum(terms: list[float]) -> float:
    """log10 of a sum of magnitudes given by their log10s; -inf terms
    are zeros.  The largest term is kept, with every term within 40
    decades of it (a million more move the sum by under 1e-34 of it);
    the kept terms are added exactly rounded by math.fsum."""
    top = max(terms, default=-math.inf)
    if top == -math.inf:
        return -math.inf
    return top + math.log10(math.fsum(10.0 ** (t - top) for t in terms if t >= top - 40.0))


# ---------------------------------------------------------------------------
# Independent model


def p_independent(alpha: float, n: int) -> LogMagnitude:
    """Union bound on the probability that a triple of independent-entry
    rows is deficient:

        p = (1 - alpha^3)^n + 3 (1 - alpha^2 (1 - alpha))^n

    The first term bounds the chance that no column shows 1s in all
    three rows; each of the other three patterns fails with the second
    term's base, and the three cases are symmetric.
    """
    if not 0 < alpha <= 1:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    a = float(alpha)
    # log1p keeps precision when alpha is small and alpha^3 is tiny.
    log10_all_ones = n * math.log1p(-(a**3)) / _LN10 if a < 1 else -math.inf
    log10_pair = math.log10(3.0) + n * math.log1p(-(a**2) * (1.0 - a)) / _LN10
    return LogMagnitude(_log10_sum([log10_all_ones, log10_pair]))


def lll_max_rows(p: LogMagnitude) -> LogMagnitude:
    """Rows guaranteed by the local lemma at per-triple probability p:
    the largest m with (3 e / 2) m^2 p <= 1, i.e. sqrt(2 / (3 e p)).
    Values below 1 mean no nontrivial guarantee (callers floor to an
    integer row count when they need one).
    """
    if p.is_zero:
        raise ValueError("zero deficiency probability gives an unbounded m")
    return LogMagnitude(LOG10_LLL_CONST - 0.5 * p.log10)


def zeta(alpha: float, n: int) -> LogMagnitude:
    """Independent-model row bound sqrt(2 / (3 e)) * p^(-1/2) with
    p = p_independent(alpha, n)."""
    return lll_max_rows(p_independent(alpha, n))


def floor_rows(bound: LogMagnitude) -> int:
    """Largest integer row count not exceeding the bound.  Only valid
    when the bound fits comfortably in an int via float; constructive
    use never needs more."""
    if bound.is_zero:
        return 0
    if bound.log10 >= 18:
        raise OverflowError(f"10^{bound.log10:.1f} rows is not materializable")
    return int(10.0 ** bound.log10)


# ---------------------------------------------------------------------------
# Fixed-weight model, exact rational sums


def _overlaps(n: int, r: int) -> tuple[int, int]:
    """Admissible overlaps u = |A & B| of two weight-r rows A, B: from
    max(0, 2r-n) up to r in sigma2, and up to min(r, n-r) in sigma1,
    whose third row must fit in the n - u columns outside A & B."""
    return max(0, 2 * r - n), min(r, n - r)


def sigma1(n: int, r: int) -> Fraction:
    """Exact probability that three uniform weight-r rows A, B, C share
    no common 1-column.  Given a fixed A, B meets it in exactly u
    columns and C avoids those u columns with weight

        phi(u) = C(r,u) C(n-r,r-u) C(n-u,r) / C(n,r)^2

    summed over u from max(0, 2r-n) to min(r, n-r) as one integer over
    C(n,r)^2.  Empty range (r > 2n/3) gives 0: rows that big always
    intersect pairwise in more than half their columns, forcing a
    triple intersection.
    """
    lo, hi = _overlaps(n, r)
    total = sum(
        comb(r, u) * comb(n - r, r - u) * comb(n - u, r) for u in range(lo, hi + 1)
    )
    return Fraction(total, comb(n, r) ** 2)


def sigma2(n: int, r: int) -> Fraction:
    """Exact probability that no column reads (1, 1, 0) across three
    uniform weight-r rows A, B, C.  B meets A in exactly u columns and
    C holds all u of them, its n - r zeros lying in the other n - u
    columns, with weight

        psi(u) = C(r,u) C(n-r,r-u) C(n-u,n-r) / C(n,r)^2

    summed over u from max(0, 2r-n) to r as one integer over C(n,r)^2.
    """
    lo, _ = _overlaps(n, r)
    total = sum(
        comb(r, u) * comb(n - r, r - u) * comb(n - u, n - r) for u in range(lo, r + 1)
    )
    return Fraction(total, comb(n, r) ** 2)


def p_fixed_exact(n: int, r: int) -> Fraction:
    """Union bound on the deficiency probability of three uniform
    weight-r rows: sigma1 + 3 sigma2.  As a union bound it can exceed 1
    for small or extreme parameters; callers clamp where needed.
    """
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    return sigma1(n, r) + 3 * sigma2(n, r)


def p_fixed_log10(n: int, r: int) -> LogMagnitude:
    """Same union bound as p_fixed_exact but summed in log space, for
    column counts where exact rationals are impractically slow.  Every
    binomial is three math.lgamma calls, and only the O(sqrt n) terms
    near the peak of each sum are evaluated (_near_peak): the float is
    that of a sum over every term."""
    if not 1 <= r <= n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if n > FIXED_LOG_N_LIMIT:
        raise ValueError(f"n={n} is past the limit of {FIXED_LOG_N_LIMIT} columns")

    def ln_comb(a, b):
        return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)

    # psi runs over u in [lo, r], phi over its prefix u <= min(r, n - r);
    # both share the factor C(r,u) C(n-r,r-u) / C(n,r)^2.
    ln_norm = 2.0 * ln_comb(n, r)

    def shared(u):
        return ln_comb(r, u) + ln_comb(n - r, r - u) - ln_norm

    def phi(u):
        return (shared(u) + ln_comb(n - u, r)) / _LN10

    def psi(u):
        return (shared(u) + ln_comb(n - u, n - r) + math.log(3.0)) / _LN10

    lo, hi = _overlaps(n, r)
    terms = _near_peak(phi, lo, hi) + _near_peak(psi, lo, r)
    return LogMagnitude(_log10_sum(terms))


def _near_peak(f, lo: int, hi: int) -> list[float]:
    """f(u) for a log-concave f on [lo, hi], outward from its peak (found
    by bisection) up to the first value 41 decades below the peak on each
    side.  That is one decade more than _log10_sum keeps, a margin far
    wider than lgamma's error, so every term it would keep is here."""
    if lo > hi:
        return []
    a, b = lo, hi
    while a < b:
        mid = (a + b) // 2
        if f(mid) < f(mid + 1):
            a = mid + 1
        else:
            b = mid
    floor, values = f(a) - 41.0, []
    for side in (range(a, lo - 1, -1), range(a + 1, hi + 1)):
        for u in side:
            if (value := f(u)) < floor:
                break
            values.append(value)
    return values


def fixed_deficiency_prob(n: int, r: int) -> LogMagnitude:
    """Union bound for the fixed-weight model, choosing exact rational
    summation up to EXACT_N_LIMIT columns and log space beyond."""
    if n <= EXACT_N_LIMIT:
        return LogMagnitude.from_fraction(p_fixed_exact(n, r))
    return p_fixed_log10(n, r)


# ---------------------------------------------------------------------------
# Asymptotic profile of the fixed-weight sums at density alpha = r / n


def _log_pow_self(x: float) -> float:
    """ln(x^x) = x ln x with the 0 ln 0 = 0 convention.  Tiny negative x
    (rounding noise from subtractive cancellation at domain boundaries)
    is clamped to 0; genuinely negative x is a caller bug.
    """
    if x < 0.0:
        if x > -1e-12:
            return 0.0
        raise ValueError(f"negative base {x} in x ln x")
    if x == 0.0:
        return 0.0
    return x * math.log(x)


def discriminant_lead(alpha: float) -> float:
    """e(alpha), the n^4 coefficient of the phi discriminant at r = alpha n:
    1 - 3a^4 + 8a^3 - 6a^2, factored to avoid cancellation near a = 1."""
    return (1.0 - alpha) ** 3 * (1.0 + 3.0 * alpha)


class AsymptoticProfile(Record):
    """Large-n behaviour of the fixed-weight sums at density alpha.

    beta and kappa locate (as fractions of n) the dominant terms of the
    two sums; xi and theta
    are the per-column decay bases of those sums, so sigma1 ~ xi^n and
    sigma2 ~ theta^n up to polynomial factors; mu is the base of the
    larger sum, the one that controls the row bound.  beta and xi only
    exist for alpha <= 2/3 (sigma1 is exactly zero beyond), so above
    that they are None and mu = theta.
    """

    __slots__ = ("beta", "kappa", "xi", "theta", "mu")
    beta: float | None
    kappa: float
    xi: float | None
    theta: float
    mu: float


def asymptotic_profile(alpha: float) -> AsymptoticProfile:
    """Evaluate the profile at a density alpha in (0, 1]."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    a = float(alpha)

    beta: float | None = None
    xi: float | None = None
    if a <= 2.0 / 3.0:
        sqrt_e = (1.0 - a) * math.sqrt((1.0 - a) * (1.0 + 3.0 * a))
        beta = (1.0 - a * a - sqrt_e) / (2.0 - 2.0 * a)
        # ln xi as a compensated sum of x ln x terms; exponentiating a
        # well-conditioned log is far more accurate than multiplying
        # seven powers directly.
        log_xi = math.fsum(
            [
                (3.0 - 3.0 * a) * math.log(1.0 - a),
                _log_pow_self(1.0 - beta),
                2.0 * a * math.log(a),
                -_log_pow_self(beta),
                -2.0 * _log_pow_self(a - beta),
                -_log_pow_self(1.0 - 2.0 * a + beta),
                -_log_pow_self(1.0 - a - beta),
            ]
        )
        xi = math.exp(log_xi)

    # 5a^4 - 12a^3 + 10a^2 - 4a + 1 = (1-a)^2 (5a^2 - 2a + 1), again
    # factored so the square root stays exact as a approaches 1.
    sqrt_rad = (1.0 - a) * math.sqrt(5.0 * a * a - 2.0 * a + 1.0)
    kappa = (3.0 * a * a + 1.0 - 2.0 * a - sqrt_rad) / (2.0 * a)
    log_theta = math.fsum(
        [
            3.0 * a * math.log(a),
            (2.0 - 2.0 * a) * math.log(1.0 - a) if a < 1.0 else 0.0,
            _log_pow_self(1.0 - kappa),
            -_log_pow_self(kappa),
            -3.0 * _log_pow_self(a - kappa),
            -_log_pow_self(1.0 - 2.0 * a + kappa),
        ]
    )
    theta = math.exp(log_theta)

    mu = xi if (a <= 0.5 and xi is not None) else theta
    return AsymptoticProfile(beta, kappa, xi, theta, mu)


def nu(alpha: Fraction | float, n: int, mode: str = "asymptotic") -> LogMagnitude:
    """Fixed-weight row bound at density alpha.

    mode "asymptotic": n^(-1/4) * mu(alpha)^(-n/2), the closed form with
    the dominant-sum decay base and unit leading constant; valid for
    large n and the form used for the reference tables.

    mode "exact-sum": sqrt(2 / (3 e)) * p^(-1/2) with p the exact union
    bound (clamped at 1), requiring alpha * n to be an integer weight.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if mode == "asymptotic":
        a = float(alpha)
        profile = asymptotic_profile(a)
        log10_m = -0.25 * math.log10(n) - 0.5 * n * math.log10(profile.mu)
        return LogMagnitude(log10_m)
    if mode == "exact-sum":
        r_exact = Fraction(alpha) * n
        if r_exact.denominator != 1:
            raise ValueError(
                f"alpha={alpha} times n={n} is not an integer row weight"
            )
        p = fixed_deficiency_prob(n, int(r_exact))
        if p.log10 > 0.0:
            # Union bound above 1 carries no information; clamping keeps
            # the inverted bound non-trivial-free (floors to zero rows).
            p = LogMagnitude(0.0)
        return lll_max_rows(p)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# One dispatch from the model names of the command line and scripts

#: Column counts and, per model, densities of the reference bound tables.
TABLE_NS = (10_000, 100_000, 300_000, 1_000_000)
TABLE_ALPHAS = {
    "independent": ("0.1669", "0.2", "1/3", "0.5", "2/3", "0.7395", "0.8"),
    "fixed-asymptotic": ("0.1685", "0.2", "1/3", "0.5", "2/3", "0.7395", "0.8"),
}


def row_bound(model: str, alpha: Fraction, n: int) -> LogMagnitude:
    """Row bound under a named model: "independent" (zeta),
    "fixed-asymptotic" (nu's closed form) or "fixed-exact" (nu on the
    exact union bound, which needs alpha * n to be an integer)."""
    if model == "independent":
        return zeta(float(alpha), n)
    if model == "fixed-asymptotic":
        return nu(alpha, n, mode="asymptotic")
    if model == "fixed-exact":
        return nu(alpha, n, mode="exact-sum")
    raise ValueError(f"unknown model {model!r}")
