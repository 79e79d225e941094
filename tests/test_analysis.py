import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from rosenau import (
    SweepPoint,
    appendix_report,
    bernoulli_kernel,
    d2_bound_check,
    d3_bound_check,
    delta_field,
    exact_decay_check,
    forward_transform,
    frame_scale,
    gaussian_field,
    gaussian_initial,
    heat_propagate,
    inverse_transform,
    kernel_by_name,
    load_distribution,
    mixture_initial,
    moment,
    rate_fit,
    rescale,
    rosenau_kernel,
    rosenau_propagate,
)
from rosenau.analysis import APPENDIX_T_MAX, initial_by_name, solve_mixture_params
from rosenau.config import parse_config
from rosenau.errors import (
    InfiniteDistanceError,
    InvalidDataError,
    InvalidParameterError,
    UnsupportedKernelError,
)
from rosenau.runner import simulate


class TestInitialData:
    def test_gaussian_unit_moments(self, grid):
        d = inverse_transform(gaussian_initial(grid, 1.0))
        assert moment(d, 0) == pytest.approx(1.0, abs=1e-12)
        assert moment(d, 1, signed=True) == pytest.approx(0.0, abs=1e-12)
        assert moment(d, 2) == pytest.approx(1.0, rel=1e-10)

    def test_mixture_matches_requested_moments(self, grid):
        f = mixture_initial(grid, second_moment=2.0, fourth_moment=8.0)
        d = inverse_transform(f)
        assert moment(d, 2) == pytest.approx(2.0, rel=1e-9)
        assert moment(d, 4) == pytest.approx(8.0, rel=1e-8)
        assert moment(d, 3, signed=True) == pytest.approx(0.0, abs=1e-9)

    def test_solver_bisection(self):
        a, s = solve_mixture_params(2.0, 8.0)
        assert a**2 + s**2 == pytest.approx(2.0, rel=1e-12)
        assert 3 * 4.0 - 2 * a**4 == pytest.approx(8.0, rel=1e-10)
        with pytest.raises(InvalidParameterError):
            solve_mixture_params(2.0, 13.0)  # beyond the Gaussian extreme

    def test_solver_closed_form(self):
        # a^2 = sqrt((3 m2^2 - m4)/2): the unit mixture is the oracle's a^2 = 2^-1/2,
        # and the extremes are pure atoms (s = 0) and a pure Gaussian (a = 0)
        assert solve_mixture_params(1.0, 2.0) == (math.sqrt(math.sqrt(0.5)),
                                                  math.sqrt(1.0 - math.sqrt(0.5)))
        assert solve_mixture_params(2.0, 4.0) == (math.sqrt(2.0), 0.0)
        assert solve_mixture_params(2.0, 12.0) == (0.0, math.sqrt(2.0))

    def test_registry(self, grid):
        for name in ("gaussian-unit", "mixture-unit", "mixture-matched"):
            f = initial_by_name(name, grid, sigma_sq=1.0)
            assert f.mass == pytest.approx(1.0, abs=1e-13)
        with pytest.raises(InvalidParameterError):
            initial_by_name("delta", grid)


class TestRescale:
    def test_identity_at_t0(self, gauss_unit):
        r = rescale(gauss_unit, 0.0)
        assert frame_scale(0.0) == 1.0
        assert np.max(np.abs(r.values - gauss_unit.values)) <= 1e-15

    def test_negative_time_rejected(self, gauss_unit):
        with pytest.raises(InvalidParameterError):
            frame_scale(-1e-9)
        with pytest.raises(InvalidParameterError):
            SweepPoint(None, gauss_unit, 1.0, -1e-9).z

    def test_no_wrapper_exported(self):
        import rosenau

        assert not hasattr(rosenau, "RescaledSolution")

    def test_mass_invariant(self, gauss_unit):
        assert rescale(gauss_unit, 7.0).mass == pytest.approx(gauss_unit.mass, abs=1e-13)

    def test_heat_flow_composition_closed_form(self, grid):
        # variance-sigma^2 Gaussian datum: rescaled transform is
        # exp(-(sigma^2/2) xi^2 (2t+1)/(t+1)), approaching the sqrt(2)-wider profile
        sigma = 1.0
        g0 = gaussian_field(grid, sigma**2)
        for t in (0.5, 3.0, 40.0):
            h = rescale(heat_propagate(g0, sigma**2, t), t)
            xi = grid.xi()
            expect = np.exp(-(sigma**2 / 2.0) * xi**2 * (2 * t + 1) / (t + 1))
            assert np.max(np.abs(h.values - expect)) <= 1e-12

    @pytest.mark.parametrize("family", ["rosenau", "central-diff"])
    @pytest.mark.parametrize("initial", ["gaussian-unit", "mixture-unit"])
    def test_registry_fields_equal_the_rescale_path(self, grid, family, initial):
        # the sweep registry rescales by multiplying the rescaled datum; rescale
        # and dilate compose the propagators' closures instead: same bits
        g0 = initial_by_name(initial, grid)
        for eps in (0.2, 0.1, 0.05):
            kernel = kernel_by_name(family, eps)
            for t in (1.0, 10.0, 100.0):
                point = SweepPoint(kernel, g0, kernel.sigma_sq, t)
                kin = rescale(rosenau_propagate(g0, kernel, t), t)
                heat = rescale(heat_propagate(g0, kernel.sigma_sq, t), t)
                assert np.array_equal(point.h_kin.values, kin.values)
                assert np.array_equal(point.h_heat.values, heat.values)


class TestExactDecayCheck:
    def test_t0_is_equality(self, grid):
        g0 = mixture_initial(grid, 1.0)
        chk = exact_decay_check(g0, 1.0, [0.0])[0]
        assert chk.lhs == pytest.approx(chk.rhs, rel=1e-12)
        assert chk.satisfied

    def test_mixture_satisfied_at_all_times(self, grid):
        g0 = mixture_initial(grid, 1.0)
        checks = exact_decay_check(g0, 1.0, [1.0, 3.0, 10.0, 30.0, 100.0])
        assert all(c.satisfied for c in checks)

    def test_sharp_for_narrow_data_at_large_t(self, grid):
        # nearly-degenerate datum probes sharpness: ratio tends to 1
        g0 = gaussian_initial(grid, 0.01)
        chk = exact_decay_check(g0, 1.0, [100.0])[0]
        assert chk.satisfied
        assert chk.rhs / chk.lhs <= 1.05


class TestD2BoundCheck:
    def test_t0_equality(self, grid):
        g0 = gaussian_initial(grid, 1.0)
        for family in ("rosenau", "central-diff"):
            chk = d2_bound_check(kernel_by_name(family, 0.1), g0, [0.0])[0]
            assert chk.lhs == pytest.approx(chk.rhs, rel=1e-12)

    @pytest.mark.parametrize("family", ["rosenau", "central-diff"])
    def test_satisfied_with_margin(self, grid, family):
        g0 = mixture_initial(grid, 1.0)
        checks = d2_bound_check(kernel_by_name(family, 0.1), g0, [1.0, 10.0, 100.0])
        for c in checks:
            assert c.satisfied and c.margin > 0.0

    def test_unknown_family(self, grid):
        with pytest.raises(InvalidParameterError):
            heat = dataclasses.replace(rosenau_kernel(0.1, 1.0), family="heat")
            d2_bound_check(heat, gaussian_initial(grid, 1.0), [1.0])


class TestD3BoundCheck:
    def test_t0_equality(self, grid):
        k = bernoulli_kernel(0.1, 1.0)
        g0 = mixture_initial(grid, 2.0)
        chk = d3_bound_check(k, g0, [0.0])[0]
        assert chk.lhs == pytest.approx(chk.rhs, rel=1e-12)

    @pytest.mark.parametrize("make", [bernoulli_kernel, rosenau_kernel])
    def test_satisfied(self, grid, make):
        k = make(0.1, 1.0)
        g0 = mixture_initial(grid, 2.0)
        checks = d3_bound_check(k, g0, [1.0, 10.0, 100.0])
        assert all(c.satisfied for c in checks)

    def test_rhs_term_scales_eps_three_halves(self):
        # for the two-atom family B = 2 eps^2 sigma^4 so the suboptimal term
        # carries eps^(3/2)
        from rosenau.analysis import D3_PREFACTOR
        from rosenau import b_epsilon

        t = 10.0
        term = {}
        for eps in (0.2, 0.1):
            b = b_epsilon(bernoulli_kernel(eps, 1.0))
            term[eps] = D3_PREFACTOR * b**0.75 * (math.sqrt(t) / (1 + t)) ** 1.5
        assert term[0.2] / term[0.1] == pytest.approx(2.0**1.5, rel=1e-10)

    def test_moment_mismatch_propagates(self, grid):
        k = bernoulli_kernel(0.1, 1.0)
        g0 = gaussian_initial(grid, 1.0)  # m2 = 1 != 2 sigma^2
        with pytest.raises(InfiniteDistanceError):
            d3_bound_check(k, g0, [1.0])


class TestChecksAtTimeZero:
    """d0 is the check's own metric at t = 0, so every check there is an equality."""

    @pytest.fixture(scope="class")
    def file_datum(self, tmp_path_factory):
        # m2 = 1 + 2 sigma^2 t = 2 sigma^2 at t = 0.5: finite d3 to the profile
        cfg = parse_config("kernel = rosenau\nepsilons = 0.1\ntimes = 0.5\n"
                           "initial = gaussian-unit\nmetrics = mass\n[grid]\nL = 200\nN = 4096\n")
        (path,) = simulate(cfg, out_dir=str(tmp_path_factory.mktemp("sim")))
        return forward_transform(load_distribution(path))

    @pytest.mark.parametrize("family", ["rosenau", "central-diff"])
    @pytest.mark.parametrize("datum", ["preset", "file"])
    def test_margin_is_exactly_zero(self, grid, file_datum, family, datum):
        g0 = initial_by_name("mixture-matched", grid) if datum == "preset" else file_datum
        k = kernel_by_name(family, 0.1)
        checks = (d2_bound_check(k, g0, [0.0]) + d3_bound_check(k, g0, [0.0])
                  + exact_decay_check(g0, k.sigma_sq, [0.0]))
        assert [c.margin for c in checks] == [0.0, 0.0, 0.0]


class TestRateFit:
    def test_exact_power_law(self):
        ts = np.geomspace(1.0, 100.0, 12)
        series = [(t, 3.0 * (1 + t) ** -0.5) for t in ts]
        fit = rate_fit(series, window=(1.0, 100.0))
        assert fit.exponent == pytest.approx(-0.5, abs=1e-12)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_window_filters_points(self):
        ts = np.geomspace(0.1, 100.0, 30)
        series = [(t, (1 + t) ** -1.0) for t in ts]
        fit = rate_fit(series, window=(5.0, 100.0))
        assert fit.n_points == sum(1 for t in ts if 5.0 <= t <= 100.0)

    def test_too_few_points(self):
        with pytest.raises(InvalidDataError):
            rate_fit([(6.0, 1.0), (8.0, 0.5), (20.0, 0.2), (90.0, 0.1)], window=(5.0, 100.0))

    def test_nonpositive_values(self):
        series = [(t, 1.0 - 0.2 * i) for i, t in enumerate([5, 10, 20, 40, 80, 90])]
        with pytest.raises(InvalidDataError):
            rate_fit(series, window=(5.0, 100.0))


class TestL1Convergence:
    def test_requires_exponential_family(self, wide_grid, cd_kernel):
        g0 = gaussian_initial(wide_grid, 1.0)
        for metric in ("l1_reg_gap", "entropy_reg"):
            with pytest.raises(UnsupportedKernelError):
                getattr(SweepPoint(cd_kernel, g0, cd_kernel.sigma_sq, 1.0), metric)

    def test_gap_decreases_and_bound_dominates(self, wide_grid):
        # the propagator gap ||Omega(t) - P_reg(t)||_L1 dominates the data gap by Young
        k = rosenau_kernel(0.2, 1.0)
        g0 = gaussian_initial(wide_grid, 1.0)
        gaps = [SweepPoint(k, g0, k.sigma_sq, t).l1_reg_gap.value for t in (1.0, 10.0, 100.0)]
        assert gaps[-1] < gaps[0]
        for t, gap in zip((1.0, 10.0, 100.0), gaps):
            assert gap <= SweepPoint(k, delta_field(wide_grid), k.sigma_sq, t).l1_reg_gap.value + 1e-12

    def test_heat_l1_baseline_decays(self, wide_grid):
        g0 = mixture_initial(wide_grid, 1.0)
        scaled = [SweepPoint(None, g0, 1.0, t).l1_heat_gap.value * math.sqrt(1 + 2 * t)
                  for t in (1.0, 10.0, 100.0)]
        assert scaled[0] >= scaled[1] >= scaled[2]

    def test_interpolation_ladder_ratio_stable(self, wide_grid):
        # ||f||_1 <= C ||f||_2^(4/5) (int v^2 |f|)^(1/5): the measured ratio
        # stays finite and essentially constant (~1.52) along the series;
        # the constant is observed, not asserted
        from rosenau import MixedDistribution, heat_propagate, lp_norm
        from rosenau.spectral import SpectralField, regularized_solution

        k = rosenau_kernel(0.2, 1.0)
        g0 = gaussian_initial(wide_grid, 1.0)
        ratios = []
        for t in (2.0, 20.0, 200.0):
            heat = heat_propagate(g0, 1.0, t)
            reg = regularized_solution(g0, k, t)
            diff = SpectralField(wide_grid, heat.values - reg.values)
            d = MixedDistribution(grid=wide_grid,
                                  density=np.abs(inverse_transform(diff).density))
            ratios.append(lp_norm(d, 1) / (lp_norm(d, 2) ** 0.8 * moment(d, 2) ** 0.2))
        assert all(math.isfinite(r) for r in ratios)
        assert max(ratios) / min(ratios) <= 1.05


class TestAppendix:
    def test_zero_time(self):
        rep = appendix_report(0.9, 0.0)
        assert rep.integral == 0.0 and rep.value == 0.0

    @pytest.mark.parametrize("s,t", [(0.9, 1.0), (0.9, 100.0), (0.5, 10.0), (0.3, 3.0)])
    def test_integral_matches_adaptive_oracle(self, s, t):
        def f(x):
            br = math.exp(-t * x * x / (1 + x * x)) - math.exp(-t)
            return x ** (2 * s) * br * br

        head = quad(f, 0.0, 50.0, limit=400)[0]
        mid = quad(f, 50.0, 5000.0, limit=400)[0]
        # beyond the cutoff the bracket is exp(-t) t/(1+x^2) to high accuracy
        far = math.exp(-2 * t) * t**2 * 5000.0 ** (2 * s - 3.0) / (3.0 - 2.0 * s)
        oracle = 2.0 * (head + mid + far)
        rep = appendix_report(s, t)
        assert rep.integral == pytest.approx(oracle, rel=1e-6)

    def test_stable_under_panel_doubling(self):
        for t in (1.0, 100.0, 1000.0):
            a = appendix_report(0.9, t, panels=128).value
            b = appendix_report(0.9, t, panels=256).value
            assert a == pytest.approx(b, rel=1e-8)

    def test_balanced_value_stays_bounded(self):
        vals = [appendix_report(0.9, t).value_balanced for t in (1.0, 10.0, 100.0, 1000.0)]
        assert max(vals) <= 1.0
        # the plain prefactor form grows; its normalized column is monotone
        norm = [appendix_report(0.9, t).normalized for t in (1.0, 10.0, 100.0, 1000.0)]
        assert all(b > a for a, b in zip(norm, norm[1:]))

    def test_bracket_pointwise_bound(self):
        # exp(-t xi^2/(1+xi^2)) - exp(-t) <= t/(1+xi^2), spot check at (2, 5)
        xi, t = 2.0, 5.0
        bracket = math.exp(-t * xi**2 / (1 + xi**2)) - math.exp(-t)
        assert bracket <= t / (1 + xi**2)

    def test_contract_range(self):
        with pytest.raises(InvalidParameterError):
            appendix_report(1.2, 1.0)
        with pytest.raises(InvalidParameterError):
            appendix_report(0.9, -1.0)

    @pytest.mark.parametrize("t,panels", [(math.nan, 128), (math.inf, 128), (1e201, 128),
                                          (1.0, 1), (1.0, 0)])
    def test_rejects_bad_time_and_too_few_panels(self, t, panels):
        with pytest.raises(InvalidParameterError):
            appendix_report(0.9, t, panels=panels)

    @pytest.mark.parametrize("s", [0.05, 0.9, 0.999])
    def test_finite_up_to_the_time_limit(self, s):
        rep = appendix_report(s, APPENDIX_T_MAX)
        assert 0.0 < rep.integral and math.isfinite(rep.value)
        assert rep.tail_bound == 0.0
