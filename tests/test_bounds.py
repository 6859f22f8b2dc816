import math
import tracemalloc
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gekr import bounds
from gekr.cli import main
from gekr.core import LogMagnitude, render_magnitude

LN10 = math.log(10.0)


class TestPIndependent:
    def test_known_log10_at_two_thirds(self):
        # Frozen by direct high-precision evaluation of the closed form.
        p = bounds.p_independent(2 / 3, 10_000)
        assert p.log10 == pytest.approx(-695.882160159, abs=1e-6)

    def test_small_alpha_precision(self):
        # alpha^3 ~ 4e-7 here; a naive 1 - alpha**3 subtraction would
        # still be fine, but log1p keeps the path exact much further.
        p = bounds.p_independent(0.0075, 10**9)
        assert p.log10 == pytest.approx(2 * (bounds.LOG10_LLL_CONST - 91.3038187298), abs=1e-4)

    def test_upper_bound_four(self):
        for alpha in (0.01, 0.3, 2 / 3, 0.99, 1.0):
            for n in (1, 2, 10):
                p = bounds.p_independent(alpha, n)
                assert p.log10 <= math.log10(4.0) + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            bounds.p_independent(0.0, 10)
        with pytest.raises(ValueError):
            bounds.p_independent(1.5, 10)
        with pytest.raises(ValueError):
            bounds.p_independent(0.5, 0)

    def test_piecewise_asymptotics(self):
        # Below density 1/2 the all-ones term dominates; above, the
        # pairwise term does.  At n = 10^4 the other term is negligible.
        n = 10_000
        for alpha in (0.2, 0.3, 0.45):
            ln_p = bounds.p_independent(alpha, n).log10 * LN10
            assert ln_p - n * math.log(1 - alpha**3) == pytest.approx(0.0, abs=1e-6)
        for alpha in (0.55, 0.6, 0.8):
            ln_p = bounds.p_independent(alpha, n).log10 * LN10
            expect = math.log(3) + n * math.log(1 - alpha**2 * (1 - alpha))
            assert ln_p - expect == pytest.approx(0.0, abs=1e-6)


class TestLLLInversion:
    def test_quarter_probability_two_rows(self):
        p = LogMagnitude(math.log10(2.0 / (3.0 * bounds.E_EULER * 4.0)))
        assert bounds.lll_max_rows(p).log10 == pytest.approx(math.log10(2.0))

    def test_probability_one_no_guarantee(self):
        # p >= 2/(3e) means the bound is below 1: no nontrivial rows.
        for p_val in (2.0 / (3.0 * bounds.E_EULER), 0.9, 1.0):
            m = bounds.lll_max_rows(LogMagnitude(math.log10(p_val)))
            assert m.log10 <= math.log10(1.0 + 1e-12)

    def test_pure_formula_above_one(self):
        # lll_max_rows itself does not clamp; only the exact-sum bound
        # inversion does.  Larger p always means a smaller formula value.
        over = bounds.lll_max_rows(LogMagnitude(math.log10(3.0)))
        at_one = bounds.lll_max_rows(LogMagnitude(0.0))
        assert over.log10 < at_one.log10

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError):
            bounds.lll_max_rows(LogMagnitude.zero())

    def test_floor_rows(self):
        assert bounds.floor_rows(LogMagnitude(math.log10(3.18))) == 3
        assert bounds.floor_rows(LogMagnitude.zero()) == 0
        assert bounds.floor_rows(LogMagnitude(math.log10(2.0))) == 2
        with pytest.raises(OverflowError):
            bounds.floor_rows(LogMagnitude(25.0))


class TestZeta:
    def test_reference_cell(self):
        z = bounds.zeta(0.5, 10_000)
        assert render_magnitude(z) == "2.26e289"
        assert z.log10 == pytest.approx(289.353512022, abs=1e-6)

    def test_two_thirds_exponential_form(self):
        # At the optimal density the bound collapses to
        # sqrt(2/(9 e)) * sqrt(27/23)^n; check the log10 residual.
        offset = 0.5 * math.log10(2.0 / (9.0 * bounds.E_EULER))
        slope = 0.5 * math.log10(27.0 / 23.0)
        for n in (1_000, 10_000, 100_000):
            z = bounds.zeta(2 / 3, n)
            assert z.log10 - (n * slope + offset) == pytest.approx(0.0, abs=1e-3)

    def test_sparse_density_huge_n(self):
        z = bounds.zeta(0.0075, 10**9)
        assert 91.176 <= z.log10 <= 91.398  # between 1.5e91 and 2.5e91
        assert z.log10 == pytest.approx(91.3038187298, abs=1e-4)

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.integers(min_value=10, max_value=5_000),
        st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=60)
    def test_strictly_increasing_in_n(self, alpha, n, dn):
        assert bounds.zeta(alpha, n + dn).log10 > bounds.zeta(alpha, n).log10


def per_term_sigmas(n: int, r: int) -> tuple[Fraction, Fraction]:
    """sigma1 and sigma2 as sums of one reduced Fraction per term phi(u)
    and psi(u).  u runs over all of 0..r: comb is 0 wherever a term is
    not admissible, so this also checks the range the sums keep to."""
    denom = comb(n, r) ** 2
    phi = psi = Fraction(0)
    for u in range(r + 1):
        pair = comb(r, u) * comb(n - r, r - u)
        phi += Fraction(pair * comb(n - u, r), denom)
        psi += Fraction(pair * comb(n - u, n - r), denom)
    return phi, psi


class TestFixedWeightExact:
    def test_sigmas_match_per_term_sums(self):
        for n in range(1, 61):
            for r in range(1, n + 1):
                assert (bounds.sigma1(n, r), bounds.sigma2(n, r)) == per_term_sigmas(n, r), (n, r)

    def test_sigma2_full_weight(self):
        assert bounds.sigma2(5, 5) == Fraction(1)

    def test_sigma_values(self):
        assert bounds.sigma1(6, 3) == Fraction(147, 400)
        assert bounds.sigma2(6, 3) == Fraction(147, 400)

    def test_p_fixed_reference_values(self):
        assert bounds.p_fixed_exact(6, 3) == Fraction(147, 100)
        assert bounds.p_fixed_exact(20, 14) == Fraction(6719, 277440)
        assert bounds.p_fixed_exact(30, 20) == Fraction(
            160667910553, 69438686642325
        )
        assert bounds.p_fixed_exact(4, 4) == Fraction(3)

    def test_sigma1_vanishes_iff_dense(self):
        for n in range(2, 25):
            for r in range(1, n + 1):
                s = bounds.sigma1(n, r)
                if 3 * r > 2 * n:
                    assert s == 0, (n, r)
                else:
                    assert s > 0, (n, r)

    def test_domain(self):
        with pytest.raises(ValueError):
            bounds.p_fixed_exact(10, 0)
        with pytest.raises(ValueError):
            bounds.p_fixed_exact(10, 11)

    @given(
        st.integers(min_value=2, max_value=40).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(min_value=1, max_value=n))
        )
    )
    @settings(max_examples=60)
    def test_p_fixed_bounded_by_four(self, nr):
        n, r = nr
        p = bounds.p_fixed_exact(n, r)
        assert 0 < p <= 4

    def test_log_regime_matches_exact(self):
        for n, r in [
            (40, 20), (100, 66), (200, 50), (400, 1), (400, 133), (400, 267),
            (400, 400), (450, 300), (499, 366), (500, 250), (501, 200), (600, 450),
            (750, 520), (1000, 667), (1000, 999), (1200, 300), (1500, 1100),
            (2000, 1479), (2000, 1990), (2000, 2000),
        ]:
            exact = LogMagnitude.from_fraction(bounds.p_fixed_exact(n, r))
            logged = bounds.p_fixed_log10(n, r)
            assert logged.log10 == pytest.approx(exact.log10, abs=1e-9), (n, r)

    def test_dispatcher_regimes(self):
        lo = bounds.fixed_deficiency_prob(30, 20)
        assert lo.log10 == pytest.approx(
            LogMagnitude.from_fraction(Fraction(160667910553, 69438686642325)).log10,
            abs=1e-12,
        )
        hi = bounds.fixed_deficiency_prob(600, 300)
        assert hi.log10 == pytest.approx(bounds.p_fixed_log10(600, 300).log10)


# p_fixed_log10(n, r).log10 as printed by the scipy (gammaln/logsumexp)
# implementation this package used before its lgamma table.
SCIPY_LOG10 = [
    (501, 61, -0.3987601385214827),
    (501, 164, -8.860796831381103),
    (501, 258, -40.894352839083986),
    (501, 488, -17.81563893288142),
    (777, 525, -82.67637041123618),
    (777, 663, -75.47730694039834),
    (777, 106, -0.8793237107730776),
    (777, 229, -9.744918759429513),
    (1000, 917, -75.22160428980177),
    (1000, 616, -99.82709092595233),
    (1000, 637, -102.58362610228019),
    (1000, 570, -92.56911645639593),
    (2000, 862, -91.1178862669124),
    (2000, 1605, -212.566344007591),
    (2000, 1173, -191.23531943893056),
    (2000, 1122, -182.49359808367706),
    (5000, 4022, -531.2111987638581),
    (5000, 4805, -241.42850121862227),
    (5000, 3614, -547.9221650729112),
    (5000, 1966, -164.63431999555564),
    (10000, 42, 0.5458185550074455),
    (10000, 1323, -10.30805051323329),
    (10000, 1815, -27.18698120214194),
    (10000, 4707, -630.5994163618792),
    (20000, 3213, -37.33770535300565),
    (20000, 14735, -2197.37977366281),
    (20000, 377, -0.0569847499233532),
    (20000, 16066, -2129.12184132071),
    (50000, 44525, -4344.668188738021),
    (50000, 20594, -1937.5787117849547),
    (50000, 13778, -504.90984337270396),
    (50000, 26033, -4190.712417934129),
    (100000, 32967, -1811.852306716265),
    (100000, 45569, -5586.078317381849),
    (100000, 46746, -6144.205235949936),
    (100000, 49329, -7548.643455034526),
    (300000, 269268, -25276.232122212263),
    (300000, 40014, -317.00754594960466),
    (1000000, 758238, -109630.9711151766),
    (1000000, 356930, -23636.162391462334),
    (501, 1, 0.6014102291901187),
    (1000, 667, -105.80579378161836),
    (1000, 999, -2.222065951163691),
    (10000, 10000, 0.47712125471966244),
    (50000, 15131, -683.6991148420032),
    (1000000, 740000, -109902.59319277722),
]


class TestFixedWeightLog:
    @pytest.mark.parametrize("n,r,old", SCIPY_LOG10)
    def test_matches_scipy_path(self, n, r, old):
        # Relative to log10 p, with an absolute floor: both paths subtract
        # log-factorials near n ln n, so each carries an absolute error of
        # a few units in the last place of ln n!, which a purely relative
        # bound cannot allow for where p is near 1 and log10 p near 0.
        new = bounds.p_fixed_log10(n, r).log10
        assert math.isclose(new, old, rel_tol=1e-12, abs_tol=1e-15 * n * math.log(n))

    @pytest.mark.parametrize(
        "k,stdout",
        [(3611, "4.06e122\nlog10 = 122.608775608\n"),
         (4997, "4.50e396\nlog10 = 396.652855553\n"),
         (6926, "1.67e541\nlog10 = 541.223642388\n"),
         (8580, "1.54e483\nlog10 = 483.187497951\n")],
    )
    def test_cli_lines_unchanged(self, k, stdout, capsys):
        # Captured from `gekr bound --model fixed-exact` on the scipy path.
        assert main(["bound", "--model", "fixed-exact", "--k", str(k), "--n", "10000"]) == 0
        assert capsys.readouterr().out == stdout

    def test_column_limit(self):
        # Rejected before the table of n + 1 log-factorials is built.
        for n in (bounds.FIXED_LOG_N_LIMIT + 1, 10**300):
            with pytest.raises(ValueError, match=f"n={n} is past the limit of 10000000"):
                bounds.p_fixed_log10(n, 3)

    def test_mpmath_digit(self):
        # mpmath at 40 digits puts this bound at 341.5443645504862; the
        # scipy path printed ...551.
        m = bounds.nu(Fraction(15131, 50000), 50000, mode="exact-sum")
        assert f"{m.log10:.9f}" == "341.544364550"

    def test_log10_sum(self):
        assert bounds._log10_sum([]) == -math.inf
        assert bounds._log10_sum([-math.inf, -math.inf]) == -math.inf
        assert bounds._log10_sum([2.0, -math.inf]) == 2.0
        assert bounds._log10_sum(np.array([1.0, 1.0])) == pytest.approx(1.0 + math.log10(2.0))
        # A term 40 decades down is below any float's rounding of the sum.
        assert bounds._log10_sum([0.0, -41.0]) == 0.0
        # Past about 3e17, top - 40 rounds to top; the largest term stays.
        assert bounds._log10_sum([-5.8e17, -5.8e17]) == -5.8e17 + math.log10(2.0)


def table_p_fixed_log10(n: int, r: int) -> float:
    """log10 of the fixed-weight union bound summed over every term, each
    from one numpy table of ln x! (math.lgamma), as p_fixed_log10 summed
    it before it took only the terms near each peak: the oracle of float
    equality.  The table holds n + 1 floats, so keep n small."""
    ln_fact = np.fromiter(map(math.lgamma, range(1, n + 2)), float, n + 1)

    def ln_comb(a, b):
        return ln_fact[a] - ln_fact[b] - ln_fact[a - b]

    lo = max(0, 2 * r - n)
    u = np.arange(lo, r + 1)
    shared = ln_comb(r, u) + ln_comb(n - r, r - u) - 2.0 * ln_comb(n, r)
    phi_u = u[: max(0, min(r, n - r) - lo + 1)]
    ln_phi = shared[: len(phi_u)] + ln_comb(n - phi_u, r)
    ln_psi = shared + ln_comb(n - u, n - r) + math.log(3.0)
    terms = np.concatenate([ln_phi, ln_psi]) / LN10
    top = terms.max()
    near = (terms[terms >= top - 40.0] - top).tolist()
    return float(top) + math.log10(math.fsum(10.0**t for t in near))


class TestFixedWeightWindow:
    """p_fixed_log10 evaluates only the terms near each peak, and gives
    the float of the sum over every term."""

    @given(st.integers(501, 20_000).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))))
    @settings(max_examples=150, deadline=None)
    def test_equals_full_table(self, nr):
        n, r = nr
        assert bounds.p_fixed_log10(n, r).log10 == table_p_fixed_log10(n, r)

    @pytest.mark.parametrize("n", [501, 502, 1000, 7777, 20_000])
    def test_equals_full_table_at_edges(self, n):
        # r = n - 1 and n leave one phi term or none; 2n/3 is where
        # sigma1 ends.
        for r in (1, 2, 2 * n // 3, 2 * n // 3 + 1, n - 1, n):
            assert bounds.p_fixed_log10(n, r).log10 == table_p_fixed_log10(n, r), (n, r)

    def test_equals_full_table_at_a_million(self):
        assert bounds.p_fixed_log10(10**6, 758_238).log10 == table_p_fixed_log10(10**6, 758_238)

    def test_memory_at_the_column_limit(self):
        # A table of n + 1 log-factorials would take 80 MB here.
        tracemalloc.start()
        try:
            bounds.p_fixed_log10(10**7, 7_395_350)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestRowBound:
    def test_models_match_direct_calls(self):
        alpha = Fraction(7, 10)
        assert bounds.row_bound("independent", alpha, 1000) == bounds.zeta(0.7, 1000)
        assert bounds.row_bound("fixed-asymptotic", alpha, 1000) == bounds.nu(alpha, 1000)
        assert bounds.row_bound("fixed-exact", alpha, 1000) == bounds.nu(
            alpha, 1000, mode="exact-sum"
        )

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown model"):
            bounds.row_bound("fixed", Fraction(1, 2), 100)
        with pytest.raises(ValueError, match="integer row weight"):
            bounds.row_bound("fixed-exact", Fraction(1, 3), 100)

    def test_calls_through_module_names(self, monkeypatch):
        # Wrappers installed on bounds.zeta / bounds.nu (as a tracer does)
        # see every call, with the mode passed by keyword.
        calls = []
        for name in ("zeta", "nu"):
            real = getattr(bounds, name)
            monkeypatch.setattr(
                bounds, name,
                lambda *a, _real=real, _name=name, **kw: calls.append((_name, kw)) or _real(*a, **kw),
            )
        for model in ("independent", "fixed-asymptotic", "fixed-exact"):
            bounds.row_bound(model, Fraction(1, 2), 100)
        assert calls == [
            ("zeta", {}), ("nu", {"mode": "asymptotic"}), ("nu", {"mode": "exact-sum"})
        ]


class TestDominantTerms:
    def test_argmax_proximity(self):
        # The integer argmax of each term family sits within 2 of the
        # profile's limiting location scaled by n.
        for n in (100, 500, 2000):
            for alpha in (0.3, 0.5, 0.6):
                r = round(alpha * n)
                prof = bounds.asymptotic_profile(alpha)
                assert prof.beta is not None
                assert abs(_float_argmax_phi(n, r) - round(prof.beta * n)) <= 2
                assert abs(_float_argmax_psi(n, r) - round(prof.kappa * n)) <= 2


def _ln_comb(a: int, b: int) -> float:
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def _float_argmax_phi(n: int, r: int) -> int:
    lo, hi = max(0, 2 * r - n), min(r, n - r)
    return max(
        range(lo, hi + 1),
        key=lambda u: _ln_comb(r, u) + _ln_comb(n - r, r - u) + _ln_comb(n - u, r),
    )


def _float_argmax_psi(n: int, r: int) -> int:
    lo = max(0, 2 * r - n)
    return max(
        range(lo, r + 1),
        key=lambda u: _ln_comb(r, u) + _ln_comb(n - r, r - u) + _ln_comb(n - u, n - r),
    )


class TestAsymptoticProfile:
    def test_seam_at_half(self):
        prof = bounds.asymptotic_profile(0.5)
        golden = (3.0 - math.sqrt(5.0)) / 4.0
        assert prof.beta == pytest.approx(golden, abs=1e-12)
        assert prof.kappa == pytest.approx(golden, abs=1e-12)
        assert prof.xi == pytest.approx(prof.theta, abs=1e-12)
        assert prof.xi == pytest.approx(0.8325476691963903, abs=1e-12)

    def test_two_thirds(self):
        prof = bounds.asymptotic_profile(2 / 3)
        assert prof.beta == pytest.approx(1 / 3, abs=1e-10)
        assert prof.xi == pytest.approx(4 / 9, abs=1e-10)
        assert prof.theta == pytest.approx(0.7828332733763574, abs=1e-9)
        assert bounds.discriminant_lead(2 / 3) == pytest.approx(1 / 9, abs=1e-12)

    def test_near_optimum(self):
        prof = bounds.asymptotic_profile(0.7395)
        assert prof.beta is None and prof.xi is None
        assert prof.theta == pytest.approx(0.7764199277376834, abs=1e-9)
        assert prof.mu == prof.theta

    def test_discriminant_lead(self):
        # e(a) = 1 - 3a^4 + 8a^3 - 6a^2, the quartic before factoring, which
        # figure 1 (starting at a = 0) reads.
        assert bounds.discriminant_lead(0.0) == 1.0
        assert bounds.discriminant_lead(1.0) == 0.0
        for a in (0.1, 0.25, 0.5, 0.7, 0.9):
            quartic = 1 - 3 * a**4 + 8 * a**3 - 6 * a**2
            assert bounds.discriminant_lead(a) == pytest.approx(quartic, rel=1e-12)

    def test_degenerate_full_density(self):
        prof = bounds.asymptotic_profile(1.0)
        assert prof.kappa == pytest.approx(1.0)
        assert prof.theta == pytest.approx(1.0)
        assert prof.beta is None and prof.xi is None
        assert prof.mu == prof.theta

    def test_mu_branch_switch(self):
        low = bounds.asymptotic_profile(0.4)
        high = bounds.asymptotic_profile(0.6)
        assert low.mu == low.xi
        assert high.mu == high.theta

    @given(st.floats(min_value=1e-3, max_value=1.0))
    @settings(max_examples=80)
    def test_bases_in_unit_interval(self, alpha):
        prof = bounds.asymptotic_profile(alpha)
        assert 0.0 < prof.theta <= 1.0 + 1e-12
        if prof.xi is not None:
            assert 0.0 < prof.xi <= 1.0 + 1e-12

    def test_domain(self):
        with pytest.raises(ValueError):
            bounds.asymptotic_profile(0.0)
        with pytest.raises(ValueError):
            bounds.asymptotic_profile(1.0000001)


class TestNu:
    def test_reference_cell(self):
        v = bounds.nu(0.5, 10_000)
        assert render_magnitude(v) == "9.00e396"
        assert v.log10 == pytest.approx(396.954453515, abs=1e-6)

    def test_beats_independent_at_half(self):
        assert bounds.nu(0.5, 10_000).log10 > bounds.zeta(0.5, 10_000).log10

    def test_exact_sum_floors(self):
        m1 = bounds.nu(Fraction(14, 20), 20, mode="exact-sum")
        assert bounds.floor_rows(m1) == 3
        m2 = bounds.nu(Fraction(20, 30), 30, mode="exact-sum")
        assert bounds.floor_rows(m2) == 10

    def test_exact_sum_clamps_union_bound(self):
        # p(4, 4) = 3 > 1, so the guarantee collapses to below one row.
        m = bounds.nu(Fraction(1), 4, mode="exact-sum")
        assert m.log10 < 0.0

    def test_exact_sum_needs_integer_weight(self):
        with pytest.raises(ValueError):
            bounds.nu(Fraction(1, 3), 10, mode="exact-sum")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            bounds.nu(0.5, 100, mode="stirling")
