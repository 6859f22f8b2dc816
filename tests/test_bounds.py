import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gekr import bounds
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
        p = LogMagnitude.from_float(2.0 / (3.0 * bounds.E_EULER * 4.0))
        assert bounds.lll_max_rows(p).to_float() == pytest.approx(2.0)

    def test_probability_one_no_guarantee(self):
        # p >= 2/(3e) means the bound is below 1: no nontrivial rows.
        for p_val in (2.0 / (3.0 * bounds.E_EULER), 0.9, 1.0):
            m = bounds.lll_max_rows(LogMagnitude.from_float(p_val))
            assert m.to_float() <= 1.0 + 1e-12

    def test_pure_formula_above_one(self):
        # lll_max_rows itself does not clamp; only the exact-sum bound
        # inversion does.  Larger p always means a smaller formula value.
        over = bounds.lll_max_rows(LogMagnitude.from_float(3.0))
        at_one = bounds.lll_max_rows(LogMagnitude.from_float(1.0))
        assert over.log10 < at_one.log10

    def test_zero_probability_rejected(self):
        with pytest.raises(ValueError):
            bounds.lll_max_rows(LogMagnitude.zero())

    def test_floor_rows(self):
        assert bounds.floor_rows(LogMagnitude.from_float(3.18)) == 3
        assert bounds.floor_rows(LogMagnitude.zero()) == 0
        assert bounds.floor_rows(LogMagnitude.from_float(2.0)) == 2
        with pytest.raises(OverflowError):
            bounds.floor_rows(LogMagnitude.from_log10(25.0))


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


class TestFixedWeightExact:
    def test_phi_term_example(self):
        assert bounds.phi_term(6, 3, 1) == Fraction(9, 40)

    def test_phi_term_range_errors(self):
        with pytest.raises(ValueError):
            bounds.phi_term(6, 3, 4)
        with pytest.raises(ValueError):
            bounds.phi_term(10, 7, 3)  # below 2r - n = 4

    def test_psi_term_full_weight(self):
        assert bounds.psi_term(5, 5, 5) == Fraction(1)

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
        for n, r in [(40, 20), (100, 66), (200, 50), (501, 200)]:
            exact = LogMagnitude.from_fraction(bounds.p_fixed_exact(n, r))
            logged = bounds.p_fixed_log10(n, r)
            assert logged.log10 == pytest.approx(exact.log10, abs=1e-9)

    def test_dispatcher_regimes(self):
        lo = bounds.fixed_deficiency_prob(30, 20)
        assert lo.log10 == pytest.approx(
            LogMagnitude.from_fraction(Fraction(160667910553, 69438686642325)).log10,
            abs=1e-12,
        )
        hi = bounds.fixed_deficiency_prob(600, 300)
        assert hi.log10 == pytest.approx(bounds.p_fixed_log10(600, 300).log10)


class TestRatioRoots:
    @pytest.mark.parametrize("n,r", [(10, 5), (100, 66), (500, 250), (2000, 1200)])
    def test_residuals(self, n, r):
        for roots in (bounds.phi_ratio_roots(n, r), bounds.psi_ratio_roots(n, r)):
            a, b, c = roots.coefficients
            for x in (roots.lower, roots.upper):
                scale = max(abs(a * x * x), abs(b * x), abs(c), 1.0)
                assert abs(a * x * x + b * x + c) / scale < 1e-9

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

    def test_domain(self):
        with pytest.raises(ValueError):
            bounds.phi_ratio_roots(10, 10)
        with pytest.raises(ValueError):
            bounds.psi_ratio_roots(10, 0)


def _float_argmax_phi(n: int, r: int) -> int:
    import numpy as np

    lo, hi = max(0, 2 * r - n), min(r, n - r)
    u = np.arange(lo, hi + 1, dtype=float)
    logs = (
        bounds._log_comb(float(r), u)
        + bounds._log_comb(float(n - r), r - u)
        + bounds._log_comb(n - u, float(r))
    )
    return lo + int(np.argmax(logs))


def _float_argmax_psi(n: int, r: int) -> int:
    import numpy as np

    lo = max(0, 2 * r - n)
    u = np.arange(lo, r + 1, dtype=float)
    logs = (
        bounds._log_comb(float(r), u)
        + bounds._log_comb(float(n - r), r - u)
        + bounds._log_comb(n - u, float(n - r))
    )
    return lo + int(np.argmax(logs))


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
        assert prof.e_coeff == pytest.approx(1 / 9, abs=1e-12)

    def test_near_optimum(self):
        prof = bounds.asymptotic_profile(0.7395)
        assert prof.beta is None and prof.xi is None
        assert prof.theta == pytest.approx(0.7764199277376834, abs=1e-9)
        assert prof.mu == prof.theta

    def test_coefficients(self):
        # e factors as (1-a)^3 (1+3a); f at 1/2 is exactly 2.
        for a in (0.1, 0.25, 0.5, 0.7, 0.9):
            prof = bounds.asymptotic_profile(a)
            assert prof.e_coeff == pytest.approx((1 - a) ** 3 * (1 + 3 * a), rel=1e-12)
        assert bounds.asymptotic_profile(0.5).f_coeff == pytest.approx(2.0)

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
        assert m.to_float() < 1.0

    def test_exact_sum_needs_integer_weight(self):
        with pytest.raises(ValueError):
            bounds.nu(Fraction(1, 3), 10, mode="exact-sum")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            bounds.nu(0.5, 100, mode="stirling")
