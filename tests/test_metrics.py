import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosenau import (
    GridSpec,
    MixedDistribution,
    b_epsilon,
    bernoulli_kernel,
    convex_functional,
    delta_field,
    dilate,
    ds_distance,
    gaussian_field,
    gaussian_reference,
    heat_propagate,
    inverse_transform,
    l1_norm,
    moment,
    rosenau_kernel,
    rosenau_propagate,
)
from rosenau.errors import InfiniteDistanceError, InvalidParameterError, UndefinedFunctionalError
from rosenau import metrics
from rosenau.metrics import CONVEX_FUNCTIONALS, HalfLine, MetricReport
from rosenau.spectral import SpectralField, field_from_symbol

from conftest import full_grid_ds_distance


def symmetric_mixture_field(grid, a, var):
    return field_from_symbol(
        grid, lambda z: np.cos(a * np.asarray(z)) * np.exp(-0.5 * var * np.asarray(z) ** 2))


class TestDsDistance:
    def test_zero_for_identical(self, grid, gauss_unit):
        assert ds_distance(gauss_unit, gauss_unit, 2.0).value == 0.0

    def test_delta_vs_gaussian_profile(self, grid):
        # sup of (1 - exp(-sigma^2 xi^2))/xi^2 is attained at xi -> 0
        for sigma in (1.0, 0.7):
            rep = ds_distance(delta_field(grid), gaussian_reference(grid, sigma**2), 2.0)
            assert rep.value == pytest.approx(sigma**2, rel=1e-5)
            assert rep.argsup == 0.0

    def test_dilation_homogeneity(self, grid):
        f1, f2 = gaussian_field(grid, 1.0), gaussian_field(grid, 2.0)
        base = ds_distance(f1, f2, 2.0).value
        scaled = ds_distance(dilate(f1, 2.0), dilate(f2, 2.0), 2.0).value
        assert base == pytest.approx(0.5, rel=1e-5)
        assert scaled / base == pytest.approx(4.0, rel=1e-3)

    def test_symmetry_and_triangle(self, grid):
        rng = np.random.default_rng(3)

        def mk():
            return symmetric_mixture_field(grid, rng.uniform(0, 2), rng.uniform(0.2, 3.0))

        for _ in range(60):
            f1, f2, f3 = mk(), mk(), mk()
            d12 = ds_distance(f1, f2, 2.0).value
            d21 = ds_distance(f2, f1, 2.0).value
            assert d12 == d21
            d13 = ds_distance(f1, f3, 2.0).value
            d23 = ds_distance(f2, f3, 2.0).value
            assert d13 <= d12 + d23 + 1e-12

    def test_mean_mismatch_diverges(self, grid):
        shifted = field_from_symbol(
            grid, lambda z: np.exp(-1j * 0.5 * np.asarray(z)) * np.exp(-0.5 * np.asarray(z) ** 2))
        with pytest.raises(InfiniteDistanceError):
            ds_distance(shifted, gaussian_field(grid, 1.0), 2.0)

    def test_d3_needs_matching_second_moments(self, grid):
        with pytest.raises(InfiniteDistanceError):
            ds_distance(gaussian_field(grid, 1.0), gaussian_field(grid, 2.0), 3.0)
        matched = symmetric_mixture_field(grid, 1.0, 1.0)  # m2 = 2 matches
        assert ds_distance(matched, gaussian_field(grid, 2.0), 3.0).value > 0.0

    def test_argsup_in_range(self, grid):
        rep = ds_distance(gaussian_field(grid, 1.0), gaussian_field(grid, 2.0), 2.0)
        assert 0.0 <= rep.argsup <= grid.xi()[-1]
        assert isinstance(rep, MetricReport)

    def test_grid_mismatch_rejected(self, grid):
        other = GridSpec(80.0, 1024)
        with pytest.raises(InvalidParameterError):
            ds_distance(gaussian_field(grid, 1.0), gaussian_field(other, 1.0), 2.0)

    def test_layout_cache_keeps_grids_apart(self):
        # equal N and different L: the cached frequency layouts must not mix,
        # whatever order the (grid, s) calls come in
        grids = [GridSpec(160.0, 4096), GridSpec(90.0, 4096)]
        fields = {g: (symmetric_mixture_field(g, 1.0, 1.0), gaussian_field(g, 2.0)) for g in grids}
        calls = [(g, s) for s in (2.0, 3.0) for g in grids]
        fresh = {}
        for g, s in calls:
            metrics._ds_layout.cache_clear()
            fresh[g, s] = ds_distance(*fields[g], s)
        assert len({(r.value, r.argsup) for r in fresh.values()}) == len(calls)
        metrics._ds_layout.cache_clear()
        for g, s in calls + calls[::-1] + calls[1::2] + calls[::2]:
            assert ds_distance(*fields[g], s) == fresh[g, s]
        # the registry's half-line frame is cached per (grid, sigma^2) and keeps them apart too
        metrics._half_frame.cache_clear()
        for g in grids + grids[::-1]:
            xi, ref = metrics.half_frame(g, 1.0)
            assert np.array_equal(xi, g.xi()[:g.points // 2 + 1])
            assert np.array_equal(ref.values, gaussian_reference(g, 1.0).values[:g.points // 2 + 1])
        assert metrics._half_frame.cache_info().misses == len(grids)


def mirrored(grid, half_values):
    """The full-grid field whose xi <= 0 half is half_values, mirrored onto xi > 0."""
    return SpectralField(grid, np.concatenate((half_values, half_values[grid.points // 2 - 1:0:-1])))


def report_or_error(d_s):
    try:
        return [float(x).hex() for x in d_s()]
    except InfiniteDistanceError:
        return "infinite"


@st.composite
def half_line_pairs(draw):
    """Two half-line fields on one grid: smooth transforms or noise, cut to spans with dead
    ends on either side, zeros of both signs inside and out, sometimes a NaN in the span."""
    grid = GridSpec(draw(st.sampled_from([20.0, 100.0])), draw(st.sampled_from([16, 32, 256, 1024])))
    half = grid.points // 2 + 1
    z = grid.xi()[:half]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    var, a = draw(st.floats(0.2, 3.0)), draw(st.sampled_from([0.0, 0.5, 1.0]))
    base = np.cos(a * z) * np.exp(-0.5 * var * z * z)
    kind = draw(st.sampled_from(["m2 mismatch", "m2 match", "same", "noise", "zero"]))
    other = {"m2 mismatch": np.exp(-0.5 * (var + draw(st.floats(0.01, 1.0))) * z * z),
             "m2 match": np.exp(-0.5 * (var + a * a) * z * z),
             "same": base.copy(),
             "noise": base + 10.0 ** draw(st.floats(-14, 0)) * rng.standard_normal(half),
             "zero": np.zeros(half)}[kind]
    pair = [base, other] if draw(st.booleans()) else [other, base]
    if kind == "zero" and draw(st.booleans()):
        pair[0] = np.zeros(half)
    if draw(st.booleans()):  # a mean mismatch: |difference| ~ |xi| near 0
        pair = [v * np.exp(draw(st.sampled_from([0.3j, 0.01j])) * z) if i else v + 0j
                for i, v in enumerate(pair)]
    if draw(st.booleans()):  # a spike that the grid sup may take over the inner bins
        pair[0][draw(st.integers(0, half - 9))] += 10.0 ** draw(st.floats(-3, 3))
    ends = st.one_of(st.integers(0, half), st.integers(half - 9, half))  # or in the inner bins
    for v in pair:
        lo, hi = sorted((draw(ends), draw(ends)))
        v[:lo] = 0.0
        v[hi:] = 0.0
        flips = rng.random(half) < 0.3
        v[flips & (v == 0)] *= -1.0  # -0.0, and -0 - 0j for complex
        if draw(st.integers(0, 4)) == 0 and lo < hi:
            v[draw(st.integers(lo, hi - 1))] = 0.0
        if draw(st.integers(0, 6)) == 0 and lo < hi:
            v[draw(st.integers(lo, hi - 1))] = math.nan
    return grid, pair


class TestSpanLimitedScan:
    """ds_distance scans only the union of the fields' live spans; value and argsup keep
    the bits of the full-grid scan (``full_grid_ds_distance``, whose limit part runs both
    fits always), and the same exception is raised where one is."""

    @given(pair=half_line_pairs(), s=st.sampled_from([0.5, 1.0, 2.0, 3.0]),
           modes=st.tuples(*[st.sampled_from(["half", "half with live", "spectral"])] * 2),
           pad=st.tuples(st.integers(0, 3), st.integers(0, 3)))
    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    def test_bits_of_the_full_grid_scan(self, pair, s, modes, pad):
        grid, values = pair
        half = grid.points // 2 + 1

        def field(v, mode):
            if mode == "spectral":
                return mirrored(grid, v)
            if mode == "half":
                return HalfLine(grid, v)
            span = metrics._live(v)  # a live slice may be wider than the nonzero span
            return HalfLine(grid, v, slice(max(span.start - pad[0], 0), min(span.stop + pad[1], half))
                            if span.start < span.stop else slice(0, pad[0]))

        got = report_or_error(lambda: ds_distance(*(field(v, m) for v, m in zip(values, modes)), s))
        want = report_or_error(lambda: full_grid_ds_distance(*(mirrored(grid, v) for v in values), s))
        assert got == want

    def test_all_zero_ratio_peaks_at_the_first_outer_bin(self):
        grid = GridSpec(20.0, 256)
        half = grid.points // 2 + 1
        v = np.zeros(half)
        v[100:110] = 1.0
        for f1, f2 in ((HalfLine(grid, v), HalfLine(grid, v.copy())),
                       (HalfLine(grid, np.zeros(half)), HalfLine(grid, -np.zeros(half)))):
            assert ds_distance(f1, f2, 2.0) == (0.0, grid.nyquist)

    def test_underflowing_powers_keep_the_full_scan(self):
        # |xi|^s underflows to 0 below |xi| ~ 0.155: there, past the fields' spans, the full
        # scan divides 0 by 0, and its NaN is the result
        grid = GridSpec(1000.0, 256)
        z = grid.xi()[:grid.points // 2 + 1]
        f1, f2 = np.exp(-0.5 * z * z), np.exp(-z * z)
        f1[60:] = f2[60:] = 0.0
        with np.errstate(all="ignore"):
            assert metrics._ds_layout(grid, 400.0)[2][-1] == 0.0
            got = ds_distance(HalfLine(grid, f1), HalfLine(grid, f2), 400.0)
            want = full_grid_ds_distance(mirrored(grid, f1), mirrored(grid, f2), 400.0)
        assert math.isnan(got.value)
        assert [float(x).hex() for x in got] == [float(x).hex() for x in want]

    def test_divergence_raised_where_the_grid_sup_wins(self):
        # a mean mismatch makes the inner ratio grow toward xi = 0, and a spike makes the
        # grid sup exceed twice the inner sup: the distance is still infinite
        grid = GridSpec(20.0, 256)
        z = grid.xi()[:grid.points // 2 + 1]
        f1 = np.exp(-0.5 * z * z) + 0j
        f2 = f1 * np.exp(0.01j * z)
        f2[100] += 10.0
        for d_s in (ds_distance, full_grid_ds_distance):
            fields = [HalfLine(grid, f) if d_s is ds_distance else mirrored(grid, f) for f in (f1, f2)]
            with pytest.raises(InfiniteDistanceError):
                d_s(*fields, 2.0)
        grid_sup = 10.0 / z[100] ** 2
        inner = np.abs(f1 - f2)[-8:-1] / z[-8:-1] ** 2
        assert 2.0 * inner.max() < grid_sup

    @pytest.mark.parametrize("s", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_order_must_be_positive_and_finite(self, grid, s):
        with pytest.raises(InvalidParameterError, match="positive and finite"):
            ds_distance(gaussian_field(grid, 1.0), gaussian_field(grid, 2.0), s)


def contracts(f1, f2, f3, s):
    """d_s(f1*f3, f2*f3) <= d_s(f1, f2) + 1e-12: convolving with a probability f3
    multiplies both transforms by a factor of modulus <= 1."""
    left = ds_distance(SpectralField(f1.grid, f1.values * f3.values),
                       SpectralField(f2.grid, f2.values * f3.values), s).value
    return left <= ds_distance(f1, f2, s).value + 1e-12


class TestContractivity:
    def test_delta_gives_equality(self, grid):
        f1, f2 = gaussian_field(grid, 1.0), gaussian_field(grid, 2.0)
        assert contracts(f1, f2, delta_field(grid), 2.0)

    def test_gaussian_smoothing(self, grid):
        f1 = delta_field(grid)
        f2 = gaussian_reference(grid, 1.0)
        left = ds_distance(
            SpectralField(grid, f1.values * f2.values),
            SpectralField(grid, f2.values * f2.values), 2.0).value
        assert left <= 1.0 + 1e-12
        assert contracts(f1, f2, f2, 2.0)

    def test_random_triples(self, grid):
        rng = np.random.default_rng(11)
        for _ in range(100):
            f1 = symmetric_mixture_field(grid, rng.uniform(0, 2), rng.uniform(0.2, 3))
            f2 = symmetric_mixture_field(grid, rng.uniform(0, 2), rng.uniform(0.2, 3))
            f3 = symmetric_mixture_field(grid, rng.uniform(0, 2), rng.uniform(0.2, 3))
            assert contracts(f1, f2, f3, 2.0)


class TestLpNorm:
    def test_unit_atom_l1(self):
        g = GridSpec(20.0, 64)
        d = MixedDistribution(grid=g, density=np.zeros(64), atoms=((0.0, 1.0),))
        assert l1_norm(d) == 1.0

    def test_gaussian_l1(self, grid):
        d = inverse_transform(gaussian_reference(grid, 1.0))
        assert l1_norm(d) == pytest.approx(1.0, abs=1e-10)


class TestMoment:
    def test_mass_conserved_along_solutions(self, grid, gauss_unit, ros_kernel, cd_kernel):
        for k in (ros_kernel, cd_kernel):
            for t in (0.0, 1.0, 10.0):
                d = inverse_transform(rosenau_propagate(gauss_unit, k, t))
                assert moment(d, 0) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("family", ["rosenau", "central-diff"])
    def test_variance_growth_slope(self, grid, gauss_unit, family):
        make = rosenau_kernel if family == "rosenau" else bernoulli_kernel
        k = make(0.1, 1.0)
        slope_expect = 2.0 * 1.0**2  # lam/eps^2 times the variance eps^2 2 sigma^2 / lam
        m2 = {}
        for t in (0.0, 10.0):
            d = inverse_transform(rosenau_propagate(gauss_unit, k, t))
            m2[t] = moment(d, 2)
        slope = (m2[10.0] - m2[0.0]) / 10.0
        assert slope == pytest.approx(slope_expect, rel=1e-6)

    def test_fourth_moment_difference_cd(self, grid):
        # for the two-atom family the kinetic and heat fourth moments differ
        # by exactly B_eps * t
        k = bernoulli_kernel(0.1, 1.0)
        g0 = symmetric_mixture_field(grid, 1.0, 1.0)  # m2 = 2 matches 2 sigma^2
        t = 3.0
        kin = rosenau_propagate(g0, k, t)
        heat = heat_propagate(g0, k.sigma_sq, t)
        diff = SpectralField(grid, kin.values - heat.values)
        delta_m4 = moment(inverse_transform(diff), 4)
        assert delta_m4 == pytest.approx(b_epsilon(k) * t, rel=1e-5)

    def test_fourth_moment_difference_rosenau(self, grid):
        # the exponential family has lam = 1 at sigma = 1, so the measured
        # difference is lam * m4 / eps^2 * t = (B_eps/2) t, half the two-atom
        # family's relation
        k = rosenau_kernel(0.1, 1.0)
        g0 = symmetric_mixture_field(grid, 1.0, 1.0)
        t = 3.0
        kin = rosenau_propagate(g0, k, t)
        heat = heat_propagate(g0, k.sigma_sq, t)
        diff = SpectralField(grid, kin.values - heat.values)
        delta_m4 = moment(inverse_transform(diff), 4)
        from rosenau.kernels import kernel_moment
        predicted = k.lam * kernel_moment(k, 4) / k.epsilon**2 * t
        assert predicted == pytest.approx(0.5 * b_epsilon(k) * t, rel=1e-9)
        assert delta_m4 == pytest.approx(predicted, rel=1e-5)

    def test_signed_vs_absolute(self):
        g = GridSpec(20.0, 64)
        d = MixedDistribution(grid=g, density=np.zeros(64), atoms=((-2.0, 0.5), (2.0, 0.5)))
        # the moment is of |v|^k: the signed third moment of these atoms is 0
        assert moment(d, 3) == pytest.approx(8.0)


class TestConvexFunctional:
    def test_identity_gives_mass(self, grid):
        d = inverse_transform(gaussian_reference(grid, 1.0))
        assert convex_functional(d, lambda r: r) == pytest.approx(1.0, abs=1e-10)

    def test_gaussian_entropy_closed_form(self, grid):
        # int f log f for the omega_sigma profile is -log(4 pi e sigma^2)/2
        sigma = 1.0
        d = inverse_transform(gaussian_reference(grid, sigma**2))
        expect = -0.5 * math.log(4 * math.pi * math.e * sigma**2)
        assert convex_functional(d, CONVEX_FUNCTIONALS["rlogr"]) == pytest.approx(expect, abs=1e-9)

    def test_r2_equals_l2_squared(self, grid):
        d = inverse_transform(gaussian_reference(grid, 1.0))
        l2 = math.sqrt(d.grid.dv * float(np.sum(d.density**2)))
        assert convex_functional(d, CONVEX_FUNCTIONALS["r2"]) == pytest.approx(l2**2, rel=1e-12)

    def test_atoms_rejected(self):
        g = GridSpec(20.0, 64)
        d = MixedDistribution(grid=g, density=np.zeros(64), atoms=((0.0, 1.0),))
        with pytest.raises(UndefinedFunctionalError):
            convex_functional(d, lambda r: r * r)

    def test_dissipation_spot_check(self, grid, gauss_unit, ros_kernel):
        from rosenau.spectral import regularized_solution

        values = []
        for t in (0.0, 1.0, 4.0):
            d = inverse_transform(regularized_solution(gauss_unit, ros_kernel, t))
            values.append(convex_functional(d, CONVEX_FUNCTIONALS["r2"]))
        assert values[0] >= values[1] >= values[2]
