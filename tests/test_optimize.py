import math
import random

import pytest

from gekr import optimize
from gekr.bounds import asymptotic_profile, p_independent
from gekr.optimize import _Grid, _refine, argmin_independent, argmin_mu, figure_data, golden_section


class TestGoldenSection:
    def test_quadratic(self):
        x = golden_section(lambda t: (t - 2.0) ** 2, 0.0, 5.0)
        assert x == pytest.approx(2.0, abs=1e-6)

    def test_bad_bracket(self):
        with pytest.raises(ValueError):
            golden_section(lambda t: t, 1.0, 1.0)


class TestArgminIndependent:
    @pytest.mark.parametrize("n", [100, 10_000, pytest.param(10**300, id="1e300")])
    def test_near_two_thirds(self, n):
        alpha_star, p_star = argmin_independent(n)
        assert abs(alpha_star - 2 / 3) <= 1e-3
        assert p_star.log10 == pytest.approx(p_independent(alpha_star, n).log10)

    def test_single_column(self):
        alpha_star, p_star = argmin_independent(1)
        assert 0.0 < alpha_star < 1.0
        assert p_star.log10 <= math.log10(4.0)

    def test_is_a_minimum(self):
        n = 500
        alpha_star, p_star = argmin_independent(n)
        for probe in (alpha_star - 0.01, alpha_star + 0.01):
            assert p_independent(probe, n).log10 >= p_star.log10

    def test_domain(self):
        with pytest.raises(ValueError):
            argmin_independent(0)


class TestArgminMu:
    def test_window(self):
        alpha_star, mu_star = argmin_mu()
        assert 0.7385 <= alpha_star <= 0.7405
        assert mu_star == pytest.approx(0.7764199260921707, abs=1e-9)

    def test_beats_nearby_densities(self):
        alpha_star, mu_star = argmin_mu()
        assert mu_star < asymptotic_profile(2 / 3).mu
        assert mu_star < asymptotic_profile(0.8).mu

    def test_stable_under_grid_halving(self):
        coarse, _ = argmin_mu()
        fine = _refine(lambda a: asymptotic_profile(a).mu, _Grid(5e-5, 1.0 - 5e-5, 5e-5), 1e-9, 1.0)
        assert abs(coarse - fine) < 1e-4

    def test_pinned_bits(self):
        # The values of the two-branch search that argmin_mu replaced.
        assert repr(argmin_mu()) == "(0.7395350629777517, 0.7764199260921867)"


@pytest.mark.parametrize(
    "n, alpha_star, log10_p",
    [
        (1, 0.9999995458963729, 0.47712125471975203),
        (100, 0.6666668177012847, -6.486471558688779),
        (1000, 0.6666668177012847, -69.15880688666316),
        (10_000, 0.6666668177012847, -695.8821601591085),
        pytest.param(10**300, 0.6666668177012847, -6.963592814138282e298, id="1e300"),
    ],
)
def test_argmin_independent_pinned_bits(n, alpha_star, log10_p):
    # The values before _refine evaluated its own grid.
    found, p_star = argmin_independent(n)
    assert (found, p_star.log10) == (alpha_star, log10_p)


def full_scan_refine(f, grid, lo_clip, hi_clip):
    """_refine as it was before the coarse-then-fine scan: f at every
    grid point, the first argmin, golden-section between its neighbours."""
    values = [f(x) for x in grid]
    k = min(range(len(grid)), key=values.__getitem__)
    lo = grid[k - 1] if k > 0 else lo_clip
    hi = grid[k + 1] if k + 1 < len(grid) else hi_clip
    return golden_section(f, lo, hi)


def full_scan_independent(n):
    alpha = full_scan_refine(lambda a: p_independent(a, n).log10, _Grid(0.001, 0.999, 0.001), 1e-9, 1.0 - 1e-9)
    return alpha, p_independent(alpha, n)


class TestCoarseThenFine:
    """Both optimizers give the full grid scan's bits: their objectives
    have a single local minimum on the grid, where the coarse scan's
    argmin lies within one stride of the full scan's."""

    @pytest.mark.parametrize(
        "ns",
        [
            pytest.param(range(1, 401), id="1..400"),
            pytest.param(sorted(random.Random(26).sample(range(1, 10**7 + 1), 300)), id="300 random up to 1e7"),
            pytest.param([10**e for e in range(3, 16)], id="1e3..1e15"),
        ],
    )
    def test_independent_equals_full_scan(self, ns):
        assert [n for n in ns if argmin_independent(n) != full_scan_independent(n)] == []

    def test_mu_equals_full_scan(self):
        def mu_of(alpha):
            return asymptotic_profile(alpha).mu

        assert argmin_mu()[0] == full_scan_refine(mu_of, _Grid(1e-4, 1.0 - 1e-4, 1e-4), 1e-9, 1.0)

    def test_mu_evaluations(self, monkeypatch):
        # 9,999 grid points: 101 coarse and 199 fine, then the
        # golden-section steps and the final value, 315 in all, where
        # the full scan made 10,014.
        calls = []

        def counted(alpha):
            calls.append(alpha)
            return asymptotic_profile(alpha)

        monkeypatch.setattr(optimize, "asymptotic_profile", counted)
        assert repr(argmin_mu()) == "(0.7395350629777517, 0.7764199260921867)"
        assert len(calls) <= 400

    def test_ties_go_to_the_first_point(self):
        # A flat bottom: the first of the equal grid points is refined.
        def flat(alpha):
            return max(abs(alpha - 0.5) - 0.2, 0.0)

        grid = _Grid(0.01, 0.99, 0.01)
        assert _refine(flat, grid, 0.0, 1.0) == full_scan_refine(flat, grid, 0.0, 1.0)


class TestGrid:
    @staticmethod
    def ends(step):
        """The (a, b) that figure_data and argmin_mu put on a step grid."""
        return [(0.0, 1.0 - step), (step, 1.0), (0.0, 1.0), (0.70, 0.78), (step, 1.0 - step)]

    def test_ends_at_most_one_step_below_upper_end(self):
        steps = [1e-4 + k * (0.1 - 1e-4) / 2000 for k in range(2001)]
        steps += [round(1e-4 * k, 6) for k in range(1, 1001)]  # decimal steps
        for step in steps:
            for a, b in self.ends(step):
                grid = _Grid(a, b, step)
                assert grid[0] == round(a, 12)
                assert grid[-1] <= b and b - grid[-1] < step, (step, a, b, grid[-1])

    def test_default_grids(self):
        # Whole step counts keep both ends, as the pinned figures need.
        for (a, b, step), size in {
            (0.001, 0.999, 0.001): 999,
            (1e-4, 1.0 - 1e-4, 1e-4): 9999,
            (0.0, 1.0 - 0.005, 0.005): 200,
            (0.005, 1.0, 0.005): 200,
            (0.0, 1.0, 0.005): 201,
            (0.70, 0.78, 0.005): 17,
        }.items():
            grid = _Grid(a, b, step)
            assert (len(grid), grid[0], grid[-1]) == (size, round(a, 12), round(b, 12))

    def test_steps_that_do_not_divide(self):
        # Rounding the step count once took these past b.
        for fig in (2, 3):
            assert figure_data(fig, grid_step=0.06).rows[-1][0] == 0.96
        assert [row[0] for row in figure_data(4, grid_step=0.05).rows] == [0.7, 0.75]
        assert _Grid(0.009, 0.5, 0.009)[-1] == 0.495


class TestFigureData:
    def test_grid_step_domain(self):
        for step in (0.0, -0.1, 0.2, 1e-9):
            with pytest.raises(ValueError):
                figure_data(1, grid_step=step)
        with pytest.raises(ValueError):
            figure_data(5)

    def test_row_shapes(self):
        for fig in (1, 2, 3, 4):
            table = figure_data(fig, grid_step=0.02)
            assert len(table.rows) > 0
            for row in table.rows:
                assert len(row) == len(table.columns)

    def test_figure1_limits_cross(self):
        table = figure_data(1, grid_step=0.05)
        by_alpha = {row[0]: row for row in table.rows}
        # At density 0.7 the summation window is empty: lower 0.4 > upper 0.3.
        row = by_alpha[0.7]
        assert row[1] == pytest.approx(0.4)
        assert row[2] == pytest.approx(0.3)
        assert row[1] > row[2]
        # At density 0 the term-location curves span [0, 1].
        row0 = by_alpha[0.0]
        assert row0[3] == pytest.approx(0.0)
        assert row0[4] == pytest.approx(1.0)

    def test_figure2_reference_lines(self):
        table = figure_data(2, grid_step=0.1)
        for alpha, v1, v2, line_a, line_b in table.rows:
            assert line_a == pytest.approx(alpha)
            assert line_b == pytest.approx(2 * alpha - 1)
            assert v1 <= v2 + 1e-12
        last = table.rows[-1]
        assert last[0] == pytest.approx(1.0)
        assert last[1] == pytest.approx(1.0)  # kappa(1) = 1

    def test_figure3_seam_and_domains(self):
        table = figure_data(3, grid_step=0.05)
        by_alpha = {row[0]: row for row in table.rows}
        xi_half, theta_half = by_alpha[0.5][1], by_alpha[0.5][2]
        assert xi_half == pytest.approx(theta_half, abs=1e-12)
        assert by_alpha[0.0][1] == pytest.approx(1.0)
        assert by_alpha[0.0][2] is None
        assert by_alpha[0.7][1] is None  # past 2/3 the first sum is void
        assert by_alpha[0.7][2] is not None

    def test_figure3_dominant_base_switches_at_half(self):
        # Below density 1/2 the triple-intersection sum decays slower
        # (xi >= theta); above it the pairwise sum takes over.
        table = figure_data(3, grid_step=0.01)
        for alpha, xi, theta in table.rows:
            if xi is None or theta is None:
                continue
            if alpha <= 0.5:
                assert xi >= theta - 1e-9, alpha
            else:
                assert theta >= xi - 1e-9, alpha

    def test_figure4_minimum_location(self):
        step = 0.005
        table = figure_data(4, grid_step=step)
        alphas = [row[0] for row in table.rows]
        assert alphas[0] == pytest.approx(0.70)
        assert alphas[-1] == pytest.approx(0.78)
        best = min(table.rows, key=lambda row: row[1])
        assert abs(best[0] - 0.7395) <= step + 1e-12


def test_profile_consistency_with_figures():
    # Figure 3's theta column must agree with the profile evaluation.
    table = figure_data(3, grid_step=0.1)
    for alpha, _, theta in table.rows:
        if theta is not None:
            assert theta == pytest.approx(asymptotic_profile(alpha).theta)
    assert math.isclose(
        figure_data(4, grid_step=0.01).rows[0][1],
        asymptotic_profile(0.70).theta,
    )
