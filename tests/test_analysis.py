import dataclasses
import itertools
import math
import struct
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from rosenau import analysis, metrics, runner, spectral
from rosenau.analysis import (APPENDIX_T_MAX, INITIAL_PRESETS, METRICS, SweepPoint, appendix_report,
                              d2_bound_check, d3_bound_check, exact_decay_check, frame_scale,
                              gaussian_initial, initial_by_name, mixture_initial, rate_fit, rescale)
from rosenau.cli import main
from rosenau.config import ExperimentConfig, parse_config
from rosenau.errors import (
    ConfigError,
    InfiniteDistanceError,
    InvalidDataError,
    InvalidParameterError,
    RosenauError,
    UnsupportedKernelError,
)
from rosenau.kernels import b_epsilon, bernoulli_kernel, kernel_by_name, rosenau_kernel
from rosenau.metrics import ds_distance, l1_norm, moment
from rosenau.runner import compute_checks, compute_rows, simulate
from rosenau.spectral import (GridSpec, MixedDistribution, SpectralField, default_grid, delta_field,
                              field_from_symbol, forward_transform, gaussian_field,
                              gaussian_reference, heat_multiplier, heat_propagate,
                              inverse_transform, kinetic_multiplier, load_distribution,
                              multiplier_bounded, regularized_solution, rosenau_propagate,
                              save_distribution, _multiply_live)

from conftest import (b_eps_oracle, check_rhs_oracle, full_grid_ds_distance, mirrored,
                      multiply_oracle, rescaled_oracle, without_modulus, write_atoms)


class TestInitialData:
    def test_gaussian_unit_moments(self, grid):
        d = inverse_transform(gaussian_initial(grid, 1.0))
        assert moment(d, 0) == pytest.approx(1.0, abs=1e-12)
        assert grid.dv * np.sum(grid.v() * d.density) == pytest.approx(0.0, abs=1e-12)
        assert moment(d, 2) == pytest.approx(1.0, rel=1e-10)

    def test_mixture_matches_requested_moments(self, grid):
        f = mixture_initial(grid, second_moment=2.0)  # fourth moment 2 m2^2 = 8
        d = inverse_transform(f)
        assert moment(d, 2) == pytest.approx(2.0, rel=1e-9)
        assert moment(d, 4) == pytest.approx(8.0, rel=1e-8)
        assert grid.dv * np.sum(grid.v() ** 3 * d.density) == pytest.approx(0.0, abs=1e-9)

    def test_solver_closed_form(self, grid):
        # m4 = 3 m2^2 - 2 a^4 = 2 m2^2 fixes a^2 = m2 / sqrt(2) and s^2 = m2 - a^2: the
        # unit mixture is the oracle's a^2 = 2^-1/2, bit for bit in the closure
        xi = np.linspace(-6.0, 6.0, 97)
        for m2, a_sq in ((1.0, math.sqrt(0.5)), (2.0, math.sqrt(2.0))):
            s = math.sqrt(m2 - a_sq)
            want = np.cos(math.sqrt(a_sq) * xi) * np.exp(-0.5 * (s * s) * xi * xi)
            assert np.array_equal(mixture_initial(grid, m2).at(xi), want)

    @pytest.mark.parametrize("m2", [0.0, -1.0, math.inf, math.nan])
    def test_second_moment_positive_and_finite(self, grid, m2):
        for make in (gaussian_initial, mixture_initial):
            with pytest.raises(InvalidParameterError, match="positive and finite"):
                make(grid, m2)

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
        # the package holds its submodules and its version: each name has one import path
        public = {n: v for n, v in vars(rosenau).items() if not n.startswith("_")}
        assert all(isinstance(v, types.ModuleType) for v in public.values()), sorted(public)
        assert {"analysis", "kernels", "metrics", "spectral", "wild"} <= set(public)
        assert isinstance(rosenau.__version__, str)

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
        # the sweep registry rescales by multiplying the rescaled datum, on the xi <= 0
        # nodes; rescale and dilate compose the propagators' closures instead: same bits
        g0 = initial_by_name(initial, grid)
        half = grid.points // 2 + 1
        for eps in (0.2, 0.1, 0.05):
            kernel = kernel_by_name(family, eps, 1.0)
            for t in (1.0, 10.0, 100.0):
                point = SweepPoint(kernel, g0, kernel.sigma_sq, t)
                kin = rescale(rosenau_propagate(g0, kernel, t), t)
                heat = rescale(heat_propagate(g0, kernel.sigma_sq, t), t)
                assert point.h_kin.values.shape == point.h_heat.values.shape == (half,)
                assert np.array_equal(point.h_kin.values, kin.values[:half])
                assert np.array_equal(point.h_heat.values, heat.values[:half])


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
            chk = d2_bound_check(kernel_by_name(family, 0.1, 1.0), g0, [0.0])[0]
            assert chk.lhs == pytest.approx(chk.rhs, rel=1e-12)

    @pytest.mark.parametrize("family", ["rosenau", "central-diff"])
    def test_satisfied_with_margin(self, grid, family):
        g0 = mixture_initial(grid, 1.0)
        checks = d2_bound_check(kernel_by_name(family, 0.1, 1.0), g0, [1.0, 10.0, 100.0])
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


class TestCheckRhsMatchesFormula:
    """Every check's rhs against README's formula, at d0 and lhs read off a ``value``
    reader so no sweep runs."""

    @pytest.mark.parametrize("family", ["central-diff", "rosenau"])
    @pytest.mark.parametrize("check", ["heat-decay", "d2-bound", "d3-bound"])
    def test_rhs(self, family, check):
        times = [0.5, 10.0, 100.0]

        def value(t):
            return 0.37 / (1.0 + t) ** 0.8

        for eps, sigma in itertools.product([0.03, 0.1, 0.5], [1.0, 2.0]):
            k = kernel_by_name(family, eps, sigma)
            if check == "heat-decay":
                records = exact_decay_check(None, k.sigma_sq, times, value)
            elif check == "d2-bound":
                records = d2_bound_check(k, None, times, value)
            else:
                records = d3_bound_check(k, None, times, value)
                assert records[0].params["b_eps"] == pytest.approx(
                    b_eps_oracle(family, eps, sigma), rel=1e-13, abs=0.0)
            assert [c.params["t"] for c in records] == times
            for c in records:
                assert c.name.split()[0] == check and c.lhs == value(c.params["t"])
                want = check_rhs_oracle(check, family, {**c.params, "sigma": sigma}, value(0.0))
                assert c.rhs == pytest.approx(want, rel=1e-13, abs=0.0), (c, want)


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
        k = kernel_by_name(family, 0.1, 1.0)
        checks = (d2_bound_check(k, g0, [0.0]) + d3_bound_check(k, g0, [0.0])
                  + exact_decay_check(g0, k.sigma_sq, [0.0]))
        assert [c.margin for c in checks] == [0.0, 0.0, 0.0]


class TestLimitBranchFalseViolations:
    """Valid configs whose bounds hold exactly, reported violated because d0 and each
    ``heat_decay`` lhs come from the polyfit xi -> 0 limit of ``_small_xi_part``, whose
    error exceeds ``BOUND_SLACK``.  They pass once that limit is |Delta m2|/2 from moments."""

    DECAY_SWEEP = ("kernel = central-diff\nsigma = {sigma}\nepsilons = 0.5 0.2 0.1 0.05\n"
                   "times = {times}\ninitial = {initial}\nchecks = heat_decay d2_bound\n")

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 3: the polyfit xi -> 0 limit of d_s "
                              "misreads d0 and the lhs by more than BOUND_SLACK")
    @pytest.mark.parametrize("case", ["sigma-1e-3", "file"])
    def test_every_check_satisfied(self, tmp_path, case):
        if case == "sigma-1e-3":  # decay_sweep.cfg but for sigma: 5 of 35 unsatisfied
            text = self.DECAY_SWEEP.format(sigma="1e-3", times="0.5 1 2 5 10 50 100",
                                           initial="mixture-unit") + "[grid]\nN = 4096\n"
        else:  # simulate minimal at t = 1: m2 = 3, so d0 = 0.5 exactly; 4 of 20 unsatisfied
            minimal = parse_config("kernel = rosenau\nepsilons = 0.1\ntimes = 1\n"
                                   "initial = gaussian-unit\nmetrics = d2_selfsim\n")
            (path,) = simulate(minimal, out_dir=str(tmp_path))
            text = self.DECAY_SWEEP.format(sigma="1.0", times="0.5 1 2 5",
                                           initial=f"file:{path}")
        checks = compute_checks(parse_config(text))
        assert [c.name for c in checks if not c.satisfied] == []


class TestHalfLineFrame:
    """The registry's d_s fields live on xi <= 0; every d_s it reports equals the
    full-grid d_s (``full_grid_ds_distance``) of the full-grid fields."""

    CUSTOM_ATOMS = [(-2.0, 0.1), (-0.5, 0.2), (0.0, 0.4), (0.5, 0.2), (2.0, 0.1)]
    PAIRS = (("h_kin", "ref"), ("h_kin", "h_heat"), ("h_heat", "ref"))

    @pytest.fixture(scope="class")
    def custom_kernel(self, tmp_path_factory):
        return "custom:" + write_atoms(tmp_path_factory.mktemp("atoms") / "five.txt",
                                       self.CUSTOM_ATOMS)

    @staticmethod
    def outcome(d_s):
        try:
            return d_s()
        except InfiniteDistanceError:
            return "infinite"

    @given(initial=st.sampled_from(sorted(INITIAL_PRESETS)),
           family=st.sampled_from(["rosenau", "central-diff", "custom"]),
           points=st.sampled_from([16, 256, 4096]),
           eps=st.sampled_from([0.5, 0.2, 0.1, 0.05]),
           t=st.sampled_from([0.0, 0.5, 1.0, 3.7, 10.0, 100.0]))
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    def test_preset_d_s_equal_the_full_grid_oracle(self, custom_kernel, initial, family,
                                                    points, eps, t):
        kernel = kernel_by_name(custom_kernel if family == "custom" else family, eps, 1.0)
        sigma_sq = kernel.sigma_sq
        grid = default_grid(math.sqrt(sigma_sq), 100.0, n=points,
                            m2=INITIAL_PRESETS[initial][1](sigma_sq))
        g0 = initial_by_name(initial, grid, sigma_sq)
        point = SweepPoint(kernel, g0, sigma_sq, t)
        full = {"h_kin": rescale(rosenau_propagate(g0, kernel, t), t),
                "h_heat": rescale(heat_propagate(g0, sigma_sq, t), t),
                "ref": gaussian_reference(grid, sigma_sq)}
        for name, f in full.items():
            assert np.array_equal(f.values[1:], f.values[:0:-1]) and not np.any(f.values.imag)
            assert getattr(point, name).values.dtype == np.float64
        for (a, b), s in itertools.product(self.PAIRS, (2.0, 3.0)):
            assert (self.outcome(lambda: ds_distance(getattr(point, a), getattr(point, b), s))
                    == self.outcome(lambda: full_grid_ds_distance(full[a], full[b], s)))
        for metric, (a, b, s) in {"d2_selfsim": ("h_kin", "ref", 2.0),
                                  "d3_selfsim": ("h_kin", "ref", 3.0),
                                  "d2_gap": ("h_kin", "h_heat", 2.0),
                                  "d2_selfsim_heat": ("h_heat", "ref", 2.0)}.items():
            assert (self.outcome(lambda: getattr(point, metric))
                    == self.outcome(lambda: full_grid_ds_distance(full[a], full[b], s)))

    def test_file_datum_within_roundoff_of_the_full_grid(self):
        # a sampled datum is not mirror-symmetric to the bit: the half line moves the
        # d_s values by roundoff only, against the full-grid fields built the same way
        grid = GridSpec(40.0 * math.sqrt(11.0), 4096)
        g0 = forward_transform(inverse_transform(rosenau_propagate(
            initial_by_name("gaussian-unit", grid), rosenau_kernel(0.1, 1.0), 1.0)))
        for eps, t in itertools.product((0.5, 0.1), (0.5, 2.0, 10.0)):
            kernel = rosenau_kernel(eps, 1.0)
            point = SweepPoint(kernel, g0, kernel.sigma_sq, t)
            z = frame_scale(t) * grid.xi()
            datum = g0.at(z)
            full = {"h_kin": SpectralField(grid, datum * kinetic_multiplier(kernel, t)(z)),
                    "h_heat": SpectralField(grid, datum * heat_multiplier(kernel.sigma_sq, t)(z)),
                    "ref": gaussian_reference(grid, kernel.sigma_sq)}
            assert point.h_kin.values.dtype == np.complex128
            for a, b in self.PAIRS:
                got = ds_distance(getattr(point, a), getattr(point, b), 2.0)
                want = full_grid_ds_distance(full[a], full[b], 2.0)
                assert got.value == pytest.approx(want.value, rel=1e-11, abs=0.0)
                assert got.argsup == want.argsup

    def test_reference_and_half_line_built_once_per_grid_and_variance(self, grid):
        metrics._half_frame.cache_clear()
        g0 = initial_by_name("mixture-unit", grid)
        k = rosenau_kernel(0.1, 1.0)
        refs = [SweepPoint(k, g0, 1.0, t).ref for t in (0.0, 1.0, 10.0)]
        assert all(r is refs[0] for r in refs) and metrics._half_frame.cache_info().misses == 1
        xi, ref = metrics.half_frame(grid, 1.0)
        assert not (xi.flags.writeable or ref.values.flags.writeable)
        assert np.array_equal(xi, grid.xi()[:grid.points // 2 + 1])
        # sigma^2 keys the profile: exp(-2 dxi^2) < exp(-dxi^2) at xi = -dxi
        assert metrics.half_frame(grid, 2.0)[1].values[-2] < ref.values[-2]
        assert metrics._half_frame.cache_info().misses == 2


class TestLiveSpan:
    """Multipliers are evaluated only on the live span of the values they multiply, the
    first to the last nonzero sample; outside it the product is the input's +-0.  The
    propagated fields, the rescaled h_kin and h_heat and their d_s rows keep the bits of
    the full evaluation (``multiply_oracle``, ``rescaled_oracle``)."""

    CUSTOM_ATOMS = [(-2.0, 0.1), (-0.5, 0.2), (0.0, 0.4), (0.5, 0.2), (2.0, 0.1)]
    # grid Nyquist frequency per span: every preset datum underflows to 0 beyond |xi| ~ 72
    NYQUIST = {"full": 10.0, "strict": 200.0, "empty": 200.0}

    @pytest.fixture(scope="class")
    def custom_kernel(self, tmp_path_factory):
        return "custom:" + write_atoms(tmp_path_factory.mktemp("atoms") / "five.txt",
                                       self.CUSTOM_ATOMS)

    @pytest.fixture(scope="class")
    def datum_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("datum")

    @staticmethod
    def bits(x):
        return np.ascontiguousarray(x).view(np.int64)

    @staticmethod
    def row(d_s):
        try:
            return [float(x).hex() for x in d_s()]
        except InfiniteDistanceError:
            return "infinite"

    @given(initial=st.sampled_from([*sorted(INITIAL_PRESETS), "file"]),
           family=st.sampled_from(["rosenau", "central-diff", "custom"]),
           points=st.sampled_from([16, 256, 4096, 16384]),
           span=st.sampled_from(["full", "strict", "empty"]),
           eps=st.sampled_from([0.5, 0.1]),
           t=st.sampled_from([0.0, 0.5, 100.0]))
    @settings(max_examples=60, deadline=None, database=None, derandomize=True)
    def test_bits_of_the_full_evaluation(self, custom_kernel, datum_dir, initial, family,
                                         points, span, eps, t):
        kernel = kernel_by_name(custom_kernel if family == "custom" else family, eps, 1.0)
        sigma_sq = kernel.sigma_sq
        grid = GridSpec(math.pi * points / self.NYQUIST[span], points)
        if span == "empty":
            g0 = field_from_symbol(grid, lambda xi: np.zeros(np.shape(xi)))
        elif initial == "file":
            v = grid.v()
            path = str(datum_dir / f"{span}-{points}.txt")
            save_distribution(MixedDistribution(grid, np.exp(-0.5 * (20.0 * v / grid.length) ** 2)),
                              path)
            g0 = forward_transform(load_distribution(path))
        else:
            g0 = initial_by_name(initial, grid, sigma_sq)
        live = g0._span
        if span == "empty":
            assert live == slice(0, 0)
        elif initial != "file":  # a sampled datum's span depends on where its FFT is 0
            assert (live == slice(0, points)) == (span == "full") and live.start < live.stop
        fields = {
            "heat": (heat_propagate(g0, sigma_sq, t), heat_multiplier(sigma_sq, t)),
            "sol": (rosenau_propagate(g0, kernel, t), kinetic_multiplier(kernel, t)),
        }
        for f, mult in fields.values():
            assert np.array_equal(self.bits(f.values), self.bits(multiply_oracle(g0, mult)))
        reg = regularized_solution(g0, kernel, t)
        mu, w = kernel.intensity(t), math.exp(-kernel.intensity(t))
        reg_oracle = multiply_oracle(g0, lambda xi: np.exp(-mu * kernel.one_minus_symbol(xi))
                                     - kernel.one_minus_symbol(xi) * w)
        # the regularized multiplier of an atomic kernel can be negative, and a zero's
        # sign then differs from the full product's; its values are still equal
        assert np.array_equal(reg.values, reg_oracle)
        if family == "rosenau":
            assert np.array_equal(self.bits(reg.values), self.bits(reg_oracle))

        point = SweepPoint(kernel, g0, sigma_sq, t)
        full = {"h_kin": rescaled_oracle(point, kinetic_multiplier(kernel, t)),
                "h_heat": rescaled_oracle(point, heat_multiplier(sigma_sq, t))}
        for name, values in full.items():
            assert np.array_equal(self.bits(getattr(point, name).values), self.bits(values))
        full["ref"] = point.ref.values
        for metric, (a, b) in {"d2_selfsim": ("h_kin", "ref"), "d2_gap": ("h_kin", "h_heat"),
                               "d2_selfsim_heat": ("h_heat", "ref")}.items():
            assert (self.row(lambda: getattr(point, metric)) == self.row(lambda: ds_distance(
                metrics.HalfLine(grid, full[a]), metrics.HalfLine(grid, full[b]), 2.0)))

    def test_signed_zeros_outside_the_span(self):
        # numpy's complex product (re m - im 0, re 0 + im m) can flip the sign of a zero,
        # so the zeros outside the span are not a copy of the input's: they carry the
        # full product's signs, for every sign pair of a complex zero
        grid = GridSpec(20.0, 64)
        zeros = [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
        values = np.array(zeros * 4 + [1.0 + 0.5j] * 32 + zeros * 4)
        f = SpectralField(grid, values)
        assert f._span == slice(16, 48)
        kernel = rosenau_kernel(0.5, 1.0)
        for field, mult in ((heat_propagate(f, 1.0, 0.5), heat_multiplier(1.0, 0.5)),
                            (rosenau_propagate(f, kernel, 0.5), kinetic_multiplier(kernel, 0.5))):
            assert np.array_equal(self.bits(field.values), self.bits(multiply_oracle(f, mult)))


# the ends of what config.validate admits for sigma and each eps: squares normal and finite
SQUARE_MIN, SQUARE_MAX = math.sqrt(sys.float_info.min), math.sqrt(sys.float_info.max)

SWEEP_SELFSIM = """[experiment]
kernel = central-diff
sigma = 1.0
epsilons = 0.5 0.2 0.1 0.05
times = {times}
initial = mixture-unit
metrics = d2_selfsim d2_gap d2_selfsim_heat
checks = heat_decay d2_bound
[grid]
N = {N}
"""


SWEEP = runner._sweep  # the real sweep, for eager_sweep under a patched runner._sweep


def live_product(point, mult):
    """The rescaled field's values as whole-array ``_multiply_live`` gives them: datum * 1 outside
    the nonzero span, where a NaN multiplier would make rescaled_oracle's 0 * m a NaN."""
    datum = point.datum.values
    return _multiply_live(datum, point.z, metrics._live(datum), mult)


def eager_sweep(cfg, monkeypatch, product=rescaled_oracle):
    """runner._sweep with every rescaled field multiplied whole, by default on the whole half
    line (``rescaled_oracle``), and every d_s a full-grid scan (``full_grid_ds_distance``)."""
    with monkeypatch.context() as mp:
        mp.setattr(SweepPoint, "rescaled", lambda p, mult, kernel=None: metrics.HalfLine(
            p.g0.grid, product(p, mult)))
        mp.setattr(analysis, "ds_distance", lambda f1, f2, s: full_grid_ds_distance(
            mirrored(f1.grid, f1.values), mirrored(f2.grid, f2.values), s))
        return SWEEP(cfg, 1)


def hex_rows(rows, checks):
    return ([(r.epsilon, r.t, r.quantity, float(r.value).hex(), float(r.argsup).hex()) for r in rows],
            [(c.name, float(c.lhs).hex(), float(c.rhs).hex()) for c in checks])


class TestHorizon:
    """The d_s scans of the rescaled fields stop at a horizon, which needs 0 <= m <= 1 of the
    heat and kinetic multipliers (``multiplier_bounded``); rows and checks keep the bits of the
    eager path, NaN samples included."""

    ATOM_SETS = ([(-2.0, 0.1), (-0.5, 0.2), (0.0, 0.4), (0.5, 0.2), (2.0, 0.1)],
                 [(-1e150, 0.5), (1e150, 0.5)],
                 [(-1e-160, 0.5), (1e-160, 0.5)])  # m2 = 1e-320, so lam = 2 / m2 overflows

    @pytest.fixture(scope="class")
    def atom_files(self, tmp_path_factory):
        folder = tmp_path_factory.mktemp("atoms")
        return [write_atoms(folder / f"set{i}.txt", rows) for i, rows in enumerate(self.ATOM_SETS)]

    def test_validate_admits_both_ends(self):
        ExperimentConfig(sigma=SQUARE_MIN, epsilons=[SQUARE_MIN, SQUARE_MAX]).validate()
        ExperimentConfig(sigma=SQUARE_MAX).validate()
        for bad in (math.nextafter(SQUARE_MIN, 0.0), math.nextafter(SQUARE_MAX, math.inf)):
            with pytest.raises(ConfigError):
                ExperimentConfig(sigma=bad).validate()

    extremes = st.one_of(st.sampled_from([SQUARE_MIN, 1e-3, 1.0, 1e3, SQUARE_MAX]),
                         st.floats(SQUARE_MIN, SQUARE_MAX))

    @given(family=st.sampled_from(["heat", "rosenau", "central-diff", "custom"]),
           atoms=st.integers(0, len(ATOM_SETS) - 1), sigma=extremes, eps=extremes,
           t=st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e-3, 1.0, 1e3, 1e300,
                                        sys.float_info.max]),
                       st.floats(0.0, sys.float_info.max)),
           z=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1e154, 1e300]),
                                st.floats(allow_nan=False, allow_infinity=False)),
                      min_size=1, max_size=16))
    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    def test_multipliers_lie_in_the_unit_interval_where_certified(self, atom_files, family, atoms,
                                                                  sigma, eps, t, z):
        name = f"custom:{atom_files[atoms]}" if family == "custom" else family
        z = np.array(z)
        with np.errstate(all="ignore"):
            kernel = None if family == "heat" else kernel_by_name(name, eps, sigma)
            m = (heat_multiplier(sigma * sigma, t) if kernel is None else kinetic_multiplier(kernel, t))(z)
        if multiplier_bounded(kernel, t, float(np.max(np.abs(z)))):
            assert np.all((m >= 0.0) & (m <= 1.0)), m  # NaN fails too

    def test_certificate_holds_on_ordinary_input_and_fails_where_the_premise_breaks(self, atom_files):
        ordinary = [None, rosenau_kernel(0.1, 1.0), bernoulli_kernel(0.1, 1.0),
                    kernel_by_name(f"custom:{atom_files[0]}", 0.1, 1.0)]
        assert all(multiplier_bounded(k, t, 1e4) for k in ordinary for t in (1e-300, 1.0, 1e300))
        assert not any(multiplier_bounded(k, 0.0, 1.0) for k in ordinary)
        # exp(-r * 0) is NaN where r overflows; rosenau's (eps sigma xi)^2 overflows at eps = 1e154
        # and xi = 2, and lam of atoms with m2 = 1e-320 overflows
        broken = [(None, 0.0, 1e160), (rosenau_kernel(1e154, 1.0), 1.0, 2.0),
                  (kernel_by_name(f"custom:{atom_files[2]}", 1.0, 1.0), 1.0, 1e-3)]
        with np.errstate(all="ignore"):
            for kernel, t, xi in broken:
                mult = heat_multiplier(1.0, t) if kernel is None else kinetic_multiplier(kernel, t)
                assert np.isnan(mult(np.array([0.0, xi]))).any()
                assert not multiplier_bounded(kernel, t, xi)

    def test_premise_break_keeps_the_full_scan(self, tmp_path, capsys, monkeypatch):
        # rosenau at eps = 1e154 on the default grid: the kinetic multiplier is NaN inside the
        # datum's live span, so h_kin carries no envelope and the run fails as a full scan does
        text = ("[experiment]\nkernel = rosenau\nepsilons = 1e154\ntimes = 1 10\n"
                "initial = gaussian-unit\nmetrics = d2_selfsim\n")
        cfg = parse_config(text)
        kernels, g0 = runner._setup(cfg)
        point = SweepPoint(kernels[1e154], g0, 1.0, 1.0)
        assert point.h_kin.envelope is None and point.h_heat.envelope is not None
        with np.errstate(all="ignore"):
            with pytest.raises(RosenauError, match="d2_selfsim is not finite"):
                eager_sweep(cfg, monkeypatch, live_product)
            path = tmp_path / "big.cfg"
            path.write_text(text)
            messages = []
            for sweep in (lambda c, _: eager_sweep(c, monkeypatch, live_product), runner._sweep):
                with monkeypatch.context() as mp:
                    mp.setattr(runner, "_sweep", sweep)
                    assert main(["metrics", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
                messages.append(capsys.readouterr().err)
        assert messages[0] == messages[1] and "sweep point (kernel=rosenau, eps=1e+154, t=1)" in messages[1]

    def test_nan_datum_beyond_the_horizon(self, tmp_path, capsys, monkeypatch):
        # a NaN at the outermost nonzero datum sample, past where each d_s of the first sweep
        # point stops for the finite datum: the run still fails there, with the eager path's message
        text = SWEEP_SELFSIM.format(times="0.5 5", N=4096)
        cfg = parse_config(text)
        kernels, g0 = runner._setup(cfg)
        point = SweepPoint(kernels[0.5], g0, 1.0, 0.5)
        for metric in ("d2_selfsim", "d2_gap", "d2_selfsim_heat"):
            getattr(point, metric)
        assert min(point.h_kin._done, point.h_heat._done) > point.live.start
        initial = runner.analysis.initial_by_name

        def with_nan(*args):
            g0 = initial(*args)

            def analytic(xi):
                out = g0.analytic(xi)
                out[np.flatnonzero(out)[0]] = math.nan
                return out

            return field_from_symbol(g0.grid, analytic)

        monkeypatch.setattr(runner.analysis, "initial_by_name", with_nan)
        path = tmp_path / "sweep.cfg"
        path.write_text(text)
        messages = []
        for sweep in (lambda c, _: eager_sweep(c, monkeypatch, live_product), runner._sweep):
            with monkeypatch.context() as mp:
                mp.setattr(runner, "_sweep", sweep)
                assert main(["metrics", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
            messages.append(capsys.readouterr().err)
        assert messages[0] == messages[1]
        assert "sweep point (kernel=central-diff, eps=0.5, t=0.5): d2_gap is not finite: value nan" \
            in messages[1]

    def test_sweep_selfsim_keeps_the_bits_of_the_eager_path(self, monkeypatch):
        # the benchmark's sweep at N = 65536 on a few times: every d_s row and check
        cfg = parse_config(SWEEP_SELFSIM.format(times="0.5 3.7 100", N=65536))
        lazy = hex_rows(*runner._sweep(cfg, 1))
        assert len(lazy[0]) == 4 * 3 * 3 and len(lazy[1]) == 5 * 3
        assert lazy == hex_rows(*eager_sweep(cfg, monkeypatch))


class TestDatumModulus:
    """The preset data carry a modulus certifying their closure (``SpectralField.modulus``); the
    sweep's datum is then filled on demand, from xi = 0 out to where the d_s scans reach, and
    every row and check keeps the bits of the datum evaluated whole."""

    @staticmethod
    def mixture_parts(m2):
        """a and s^2 of ``mixture_initial``: a^2 = m2 / sqrt(2), s^2 = m2 - a^2."""
        a_sq = math.sqrt(0.5) * m2
        return math.sqrt(a_sq), math.sqrt(m2 - a_sq) ** 2

    @given(m2=st.one_of(st.sampled_from([sys.float_info.min, 1.0, 2.0, sys.float_info.max]),
                        st.floats(sys.float_info.min, sys.float_info.max)),
           xi=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1e154, -1e300,
                                                  sys.float_info.max]),
                                 st.floats(allow_nan=False, allow_infinity=False)),
                       min_size=1, max_size=32))
    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    def test_modulus_certifies_the_closure(self, m2, xi):
        grid = GridSpec(20.0, 16)
        x = np.array(xi)
        a, s_var = self.mixture_parts(m2)
        with np.errstate(all="ignore"):  # m2 near the largest double overflows s^2 x^2 and a x
            gauss, mix = gaussian_initial(grid, m2), mixture_initial(grid, m2)
            values = [(f.at(x), f.modulus(x)) for f in (gauss, mix)]
            finite, factor = np.isfinite(a * x), spectral._exp(-0.5 * s_var * x * x)
        assert gauss.modulus is gauss.analytic
        order = np.argsort(np.abs(x), kind="stable")
        for value, bound in values:
            nan = np.isnan(value)
            assert np.all(np.abs(value[~nan]) <= bound[~nan])
            assert np.all(bound[nan] == np.inf) and not np.any(np.isnan(bound))
            # m does not increase with |xi|, short of an inf tail
            m = bound[order]
            tail = m == np.inf
            assert np.all(tail[1:] >= tail[:-1]) and np.all(np.diff(m[~tail]) <= 0.0)
        # the mixture's modulus has the bits of its closure's own exp factor where a x is finite,
        # and inf where it is not
        value, bound = values[1]
        assert np.array_equal(bound[finite].view(np.int64), factor[finite].view(np.int64))
        assert np.all(bound[~finite] == np.inf)
        with np.errstate(all="ignore"):
            assert np.array_equal(value[finite], np.cos(a * x[finite]) * bound[finite])

    @pytest.mark.parametrize("initial", ["gaussian-unit", "mixture-unit", "mixture-matched"])
    @pytest.mark.parametrize("points", [16, 256, 4096])
    def test_half_line_bounds_its_samples_and_spans_the_nonzero_ones(self, initial, points):
        # at t = 0 (z = xi) on a wide grid, the datum underflows to 0 on most of the half line
        grid = GridSpec(math.pi * points / 200.0, points)
        g0 = initial_by_name(initial, grid, 1.0)
        z = grid.xi()[:points // 2 + 1]
        line = metrics.closure_line(g0, z)
        assert isinstance(line, metrics.HalfLineClosure)
        full = g0.at(z)
        live = metrics._live(full)
        assert line.live.start <= live.start and line.live.stop >= live.stop
        assert line.live.start > 0 or points // 2 < metrics.ENVELOPE_BLOCK  # one block: no skip
        assert np.all(metrics.envelope(full) <= line.envelope)
        head = line.upto(line.live.start)
        assert np.array_equal(head[line.live.start:], full[line.live.start:])
        assert np.array_equal(line.values.view(np.int64), full.view(np.int64))
        eager = metrics.closure_line(dataclasses.replace(g0, modulus=None), z)
        assert type(eager) is metrics.HalfLine and eager.live == live

    def test_overflowing_cosine_argument_fills_the_whole_line(self):
        # m2 = 1e300: a = 8.4e149, and a xi overflows at the outer nodes of a grid whose Nyquist
        # frequency is 1e160; the closure is NaN there, so no block may be skipped
        grid = GridSpec(math.pi * 256 / 1e160, 256)
        z = grid.xi()[:129]
        with np.errstate(all="ignore"):
            g0 = mixture_initial(grid, 1e300)
            line = metrics.closure_line(g0, z)
            assert np.all(line.envelope == np.inf) and line.live == slice(0, 129)
            full = g0.at(z)
            assert np.isnan(full[0]) and np.array_equal(line.values, full, equal_nan=True)

    CASES = [("sweep-selfsim", SWEEP_SELFSIM.format(times="0.5 3.7 100", N=65536))] + [
        (f"{initial} {family}", "[experiment]\nkernel = {}\nepsilons = 0.5 0.1\ntimes = 0.5 3.7 100\n"
         "initial = {}\nmetrics = {}\nchecks = {}\n[grid]\nN = 4096\n".format(
             family, initial, "d2_selfsim d2_gap d2_selfsim_heat" + (" d3_selfsim" if initial ==
                                                                     "mixture-matched" else ""),
             "heat_decay d2_bound" + (" d3_bound" if initial == "mixture-matched" else "")))
        for initial in ("gaussian-unit", "mixture-unit", "mixture-matched")
        for family in ("rosenau", "central-diff")]

    @pytest.mark.parametrize("text", [text for _, text in CASES], ids=[name for name, _ in CASES])
    def test_sweep_keeps_the_bits_of_the_whole_datum(self, text, monkeypatch):
        cfg = parse_config(text)
        lazy = hex_rows(*runner._sweep(cfg, 1))
        assert lazy[0] and lazy[1]
        monkeypatch.setattr(runner.analysis, "initial_by_name", without_modulus(initial_by_name))
        assert hex_rows(*runner._sweep(cfg, 1)) == lazy

    def test_datum_closure_evaluates_less_than_the_half_line(self, monkeypatch):
        # the benchmark's sweep: at every t > 0 the closure, modulus kept, is evaluated on fewer
        # nodes than the half line holds, and the rows are those of the whole datum
        cfg = dataclasses.replace(parse_config(SWEEP_SELFSIM.format(times="logspace 0.5 100 32",
                                                                   N=65536)), checks=[])
        counts = []

        def counting(*args):
            g0 = initial_by_name(*args)
            base = g0.analytic

            def analytic(xi):
                counts[-1] += np.size(xi)
                return base(xi)

            return dataclasses.replace(g0, analytic=analytic)

        monkeypatch.setattr(runner.analysis, "initial_by_name", counting)
        half = 65536 // 2 + 1
        for t in cfg.times:
            counts.append(0)
            runner._sweep(dataclasses.replace(cfg, times=[t]), 1)
        assert len(counts) == 32 and all(0 < n < half for n in counts), counts
        assert sum(counts) < 0.1 * 32 * half


class TestRealFields:
    """Preset fields store float64 samples; a complex128 copy of the datum, +0 imaginary
    parts and the same closure, gives every registry metric the same bits."""

    @staticmethod
    def outcome(point, name):
        try:
            return [float(x).hex() for x in getattr(point, name)]
        except (InfiniteDistanceError, UnsupportedKernelError) as exc:
            return type(exc).__name__

    @pytest.mark.parametrize("initial", ["mixture-unit", "mixture-matched"])
    @pytest.mark.parametrize("family", ["rosenau", "central-diff"])
    def test_complex_datum_gives_the_same_bits(self, family, initial):
        kernel = kernel_by_name(family, 0.2, 1.5)
        m2 = INITIAL_PRESETS[initial][1](kernel.sigma_sq)
        grid = default_grid(kernel.sigma, 10.0, n=256, m2=m2)
        g0 = initial_by_name(initial, grid, kernel.sigma_sq)
        g0c = SpectralField(g0.grid, g0.values.astype(complex), g0.analytic)
        assert g0.values.dtype == np.float64 and g0c.values.dtype == np.complex128
        for t in (0.0, 0.5, 2.0, 10.0):
            real, cplx = (SweepPoint(kernel, f, kernel.sigma_sq, t) for f in (g0, g0c))
            for name in METRICS:
                assert self.outcome(real, name) == self.outcome(cplx, name), (name, t)
            assert real.sol.values.dtype == np.float64 and cplx.sol.values.dtype == np.complex128


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

    def test_heat_kernel_needs_no_ones_field(self, wide_grid):
        # the heat kernel's samples are (1 + 0j) m = m + 0j, so l1_heat_gap is the same
        # double as against heat_propagate(delta_field(grid), sigma^2, t)
        g0 = mixture_initial(wide_grid, 1.0)
        for t in (1.0, 10.0, 100.0):
            kernel = heat_propagate(delta_field(wide_grid), 1.0, t)
            assert np.array_equal(field_from_symbol(wide_grid, heat_multiplier(1.0, t)).values,
                                  kernel.values)
            point = SweepPoint(None, g0, 1.0, t)
            want = l1_norm(inverse_transform(SpectralField(
                wide_grid, point.heat.values - kernel.values)))
            assert struct.pack("<d", point.l1_heat_gap.value) == struct.pack("<d", want)

    def test_interpolation_ladder_ratio_stable(self, wide_grid):
        # ||f||_1 <= C ||f||_2^(4/5) (int v^2 |f|)^(1/5): the measured ratio
        # stays finite and essentially constant (~1.52) along the series;
        # the constant is observed, not asserted
        k = rosenau_kernel(0.2, 1.0)
        g0 = gaussian_initial(wide_grid, 1.0)
        ratios = []
        for t in (2.0, 20.0, 200.0):
            heat = heat_propagate(g0, 1.0, t)
            reg = regularized_solution(g0, k, t)
            diff = SpectralField(wide_grid, heat.values - reg.values)
            d = MixedDistribution(grid=wide_grid,
                                  density=np.abs(inverse_transform(diff).density))
            l2 = math.sqrt(d.grid.dv * float(np.sum(d.density**2)))
            ratios.append(l1_norm(d) / (l2**0.8 * moment(d, 2) ** 0.2))
        assert all(math.isfinite(r) for r in ratios)
        assert max(ratios) / min(ratios) <= 1.05


class TestMomentTransport:
    M4_RTOL = 5e-8

    def test_m4_rows_follow_the_cumulant_law(self):
        # a zero-mean datum on a compound-Poisson background: the cumulants add, so
        # m4(t) = m4(0) + 6 m2(0) k2 + 3 k2^2 + k4 with k2 = 2 sigma^2 t and
        # k4 = lam t b_eps / 2, and gaussian-unit has m2(0) = 1, m4(0) = 3.  The rows
        # meet it to 3.9e-9 relative (FFT round-off weighted by v^4, worst at t = 1),
        # 13x inside M4_RTOL; dropping k4 moves every row by >= 9.9e-5 relative
        cfg = ExperimentConfig(kernel="rosenau", epsilons=[0.2, 0.1],
                               times=list(np.geomspace(1.0, 200.0, 9)), metrics=["m4"],
                               initial="gaussian-unit", N=4096)
        rows = compute_rows(cfg, threads=1)
        assert len(rows) == 18
        for r in rows:
            k = rosenau_kernel(r.epsilon, cfg.sigma)
            k2 = 2.0 * cfg.sigma**2 * r.t
            law = 3.0 + 6.0 * k2 + 3.0 * k2**2 + k.lam * r.t * b_epsilon(k) / 2.0
            assert abs(r.value - law) <= self.M4_RTOL * law


class TestScaleCovariance:
    """sigma -> c sigma with L -> c L is the change of velocity unit v -> c v.  Every
    family has diffusivity sigma^2, so at c a power of two each row of a
    mixture-matched sweep moves by its exact power of c, bit for bit, the argsup of a
    d_s row (a frequency) by 1/c, and every bound check keeps its lhs/rhs.  The *-unit
    presets fix m2 = 1 whatever sigma is, so they do not move with it."""

    CUSTOM_ATOMS = [(-2.0, 0.2), (-1.0, 0.3), (1.0, 0.3), (2.0, 0.2)]
    # metric -> the power of c its value moves by
    POWERS = {"mass": 0, "m2": 2, "m4": 4, "d2_selfsim": 2, "d3_selfsim": 3, "d2_gap": 2,
              "d2_selfsim_heat": 2, "l1_heat_gap": 0, "l1_reg_gap": 0}

    @pytest.fixture(scope="class")
    def custom_kernel(self, tmp_path_factory):
        return "custom:" + write_atoms(tmp_path_factory.mktemp("atoms") / "four.txt",
                                       self.CUSTOM_ATOMS)

    @given(family=st.sampled_from(["rosenau", "central-diff", "custom"]),
           c=st.sampled_from([0.25, 0.5, 2.0, 4.0]),
           sigma=st.sampled_from([0.3, 1.0, 1.7]),
           eps=st.sampled_from([0.5, 0.2, 0.05]),
           times=st.lists(st.sampled_from([0.5, 1.0, 10.0, 100.0]), min_size=1, max_size=2,
                          unique=True))
    @settings(max_examples=24, deadline=None, database=None, derandomize=True)
    def test_rows_and_checks_move_by_powers_of_c(self, custom_kernel, family, c, sigma, eps,
                                                  times):
        metrics = [m for m in self.POWERS if family == "rosenau" or m != "l1_reg_gap"]
        checks = ["d3_bound", "heat_decay"] + (["d2_bound"] if family != "custom" else [])
        length = 40.0 * sigma * math.sqrt(1.0 + max(times))

        def sweep(scale):
            cfg = ExperimentConfig(kernel=custom_kernel if family == "custom" else family,
                                   sigma=scale * sigma, epsilons=[eps], times=times,
                                   initial="mixture-matched", metrics=metrics, checks=checks,
                                   L=scale * length, N=4096)
            cfg.validate()
            return compute_rows(cfg, threads=1), compute_checks(cfg)

        (rows, bounds), (moved, moved_bounds) = sweep(1.0), sweep(c)
        assert [(r.t, r.quantity) for r in moved] == [(r.t, r.quantity) for r in rows]
        for r, m in zip(rows, moved):
            assert m.value == r.value * c ** self.POWERS[r.quantity], r.quantity
            assert m.argsup == r.argsup / c, r.quantity
        assert [b.name for b in moved_bounds] == [b.name for b in bounds]
        for b, m in zip(bounds, moved_bounds):
            assert m.lhs / m.rhs == b.lhs / b.rhs, b.name


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

    @pytest.mark.parametrize("s", [0.5, 0.9])
    @pytest.mark.parametrize("t", [1.0, 10.0, 1000.0])
    def test_integral_matches_quad_on_the_unit_interval(self, s, t):
        # w = 1/(1+xi^2) maps the whole line to
        # I_s = int_0^1 (1-w)^(s-1/2) w^(-s-3/2) (e^(-t(1-w)) - e^(-t))^2 dw,
        # so nothing is cut off; quad takes w^(1/2-s) (1-w)^(s-1/2) as its weight
        def f(w):
            # (e^(-t(1-w)) - e^(-t)) / w, written without cancellation
            b = math.exp(-t * (1.0 - w)) * (-math.expm1(-t * w) / w if w > 0.0 else t)
            return b * b

        oracle = quad(f, 0.0, 1.0, weight="alg", wvar=(0.5 - s, s - 0.5),
                      epsabs=0.0, epsrel=1e-13, limit=200)[0]
        assert appendix_report(s, t).integral == pytest.approx(oracle, rel=1e-9, abs=0.0)

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
