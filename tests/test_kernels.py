import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosenau.errors import InvalidKernelError, InvalidParameterError
from rosenau.kernels import (atomic_kernel, b_epsilon, bernoulli_kernel, generator_symbol,
                             kernel_by_name, kernel_moment, rosenau_kernel, tabulated_kernel)

from conftest import simpson_moment, write_atoms



class TestFactories:
    def test_rosenau_symbol_values(self):
        k = rosenau_kernel(1.0, 1.0)
        assert k.symbol(1.0) == pytest.approx(0.5, abs=1e-15)
        assert k.symbol(0.0) == pytest.approx(1.0, abs=1e-15)
        assert k.lam == 1.0

    def test_rosenau_second_moment_is_laplace(self):
        # Laplace m2 = 2 (eps sigma)^2, pinned to a Simpson oracle of the density
        k = rosenau_kernel(0.5, 2.0)
        assert kernel_moment(k, 2) == pytest.approx(2.0, rel=1e-10)
        oracle = simpson_moment(k.density, 2, half=50.0)
        assert kernel_moment(k, 2) == pytest.approx(oracle, rel=1e-9)

    def test_bernoulli_atoms_and_symbol(self):
        k = bernoulli_kernel(0.5, 2.0)
        a = 0.5 * 2.0
        assert k.symbol(math.pi / a) == pytest.approx(-1.0, abs=1e-12)
        assert k.lam == 2.0 and k.sigma_sq == 2.0**2
        assert kernel_moment(k, 2) == pytest.approx(a * a, rel=1e-14)
        # m4 = (eps sigma)^4, hence B = 2 eps^2 sigma^4
        assert kernel_moment(k, 4) == pytest.approx(a**4, rel=1e-14)
        assert b_epsilon(k) == pytest.approx(2.0 * 0.5**2 * 2.0**4, rel=1e-13)

    @pytest.mark.parametrize("eps,sigma", [(-1.0, 1.0), (0.0, 1.0), (1.0, -2.0), (1.0, 0.0)])
    def test_nonpositive_parameters_rejected(self, eps, sigma):
        with pytest.raises(InvalidParameterError):
            rosenau_kernel(eps, sigma)
        with pytest.raises(InvalidParameterError):
            bernoulli_kernel(eps, sigma)

    @pytest.mark.parametrize("make", [rosenau_kernel, bernoulli_kernel])
    @pytest.mark.parametrize("value", [1e160, 1e-200])
    def test_square_must_be_finite_and_normal(self, make, value):
        # 1e160^2 overflows and 1e-200^2 underflows to 0: either way eps^2 or sigma^2 is lost
        with pytest.raises(InvalidParameterError, match="epsilon"):
            make(value, 1.0)
        with pytest.raises(InvalidParameterError, match="sigma"):
            make(0.1, value)

    def test_kernel_by_name(self):
        assert kernel_by_name("rosenau", 0.2, 1.0).family == "rosenau"
        assert kernel_by_name("central-diff", 0.2, 1.0).family == "central-diff"
        with pytest.raises(InvalidParameterError):
            kernel_by_name("heat", 0.2, 1.0)

    def test_kernel_by_name_custom_path(self, tmp_path):
        path = write_atoms(tmp_path / "atoms.txt", [(-1.0, 0.5), (1.0, 0.5)])
        k = kernel_by_name(f"custom:{path}", epsilon=0.3, sigma=1.0)
        assert k.family == "custom"
        assert k.atoms == ((-0.3, 0.5), (0.3, 0.5))
        assert k.lam == 2.0 and k.sigma_sq == 1.0

    def test_central_diff_is_two_atom_instance(self):
        # the shared atomic sums reproduce the closed forms bit for bit
        eps, sigma = 0.05, 1.3
        a = eps * sigma
        k = bernoulli_kernel(eps, sigma)
        xi = np.linspace(-300.0, 300.0, 4097)
        assert np.array_equal(k.symbol(xi), np.cos(a * xi))
        assert np.array_equal(k.one_minus_symbol(xi), 2.0 * np.sin(0.5 * a * xi) ** 2)
        assert k.atoms == ((-a, 0.5), (a, 0.5))


class TestGeneratorSymbol:
    def test_zero_frequency(self, ros_kernel, cd_kernel):
        assert generator_symbol(ros_kernel, 0.0) == 0.0
        assert generator_symbol(cd_kernel, 0.0) == 0.0

    def test_rosenau_value(self):
        k = rosenau_kernel(1.0, 1.0)
        assert generator_symbol(k, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_cd_at_scheme_nyquist(self):
        k = bernoulli_kernel(0.25, 2.0)
        xi = math.pi / (0.25 * 2.0)
        assert generator_symbol(k, xi) == pytest.approx(2.0 * 2.0 / 0.25**2, rel=1e-12)

    @pytest.mark.parametrize("make", [rosenau_kernel, bernoulli_kernel])
    @pytest.mark.parametrize("eps,sigma", [(0.5, 1.0), (0.1, 1.0), (1.0, 2.0)])
    def test_symbol_bounded_and_generator_nonnegative(self, make, eps, sigma):
        k = make(eps, sigma)
        xi = np.linspace(-64.0, 64.0, 20001)
        assert np.max(np.abs(k.symbol(xi))) <= 1.0 + 1e-12
        assert np.min(np.real(generator_symbol(k, xi))) >= -1e-12


class TestMoments:
    def test_cd_absolute_third_moment(self):
        k = bernoulli_kernel(0.5, 1.5)
        a = 0.5 * 1.5
        assert kernel_moment(k, 3) == pytest.approx(a**3, rel=1e-14)

    def test_rosenau_fourth_moment_quadrature_vs_oracle(self):
        k = rosenau_kernel(1.0, 1.0)
        oracle = simpson_moment(k.density, 4, half=60.0)
        assert oracle == pytest.approx(24.0, rel=1e-8)
        assert kernel_moment(k, 4) == pytest.approx(24.0, rel=1e-9)

    def test_any_kernel_zeroth_moment(self, ros_kernel, cd_kernel):
        assert kernel_moment(ros_kernel, 0) == pytest.approx(1.0, abs=1e-12)
        assert kernel_moment(cd_kernel, 0) == pytest.approx(1.0, abs=1e-15)

    def test_normalization_conditions(self):
        for k in (rosenau_kernel(0.4, 1.3), bernoulli_kernel(0.4, 1.3)):
            target = 0.4**2 * 2.0 * 1.3**2 / k.lam  # the variance eps^2 2 sigma^2 / lam
            assert kernel_moment(k, 0) == pytest.approx(1.0, abs=1e-12)
            assert kernel_moment(k, 2) == pytest.approx(target, rel=1e-8)

    @pytest.mark.parametrize("sigma", [1.0, 1.5, 0.3])
    @pytest.mark.parametrize("family", ["rosenau", "central-diff"])
    def test_diffusivity_is_exactly_sigma_squared(self, family, sigma):
        # exactly the value config validation uses, at every sigma
        assert kernel_by_name(family, 0.1, sigma).sigma_sq == sigma**2

    def test_custom_fourth_moment_exact(self, tmp_path):
        # +-1 and +-2 at 1/4 each: unit-scale m2 = 5/2 and m4 = 17/2
        rows = [(-2.0, 0.25), (-1.0, 0.25), (1.0, 0.25), (2.0, 0.25)]
        k = tabulated_kernel(write_atoms(tmp_path / "atoms.txt", rows), epsilon=0.3, sigma=1.0)
        assert kernel_moment(k, 4) == pytest.approx(8.5 * 0.3**4, rel=1e-14)
        assert b_epsilon(k) == pytest.approx(2.0 * 8.5 * 0.3**2, rel=1e-14)
        assert k.sigma_sq == pytest.approx(1.0, rel=1e-15)


    @pytest.mark.parametrize("make", [
        lambda: rosenau_kernel(0.1, 1e78),
        lambda: atomic_kernel([(-1e80, 0.5), (1e80, 0.5)], 0.1, 1.0),
    ], ids=["rosenau", "atoms"])
    def test_overflowing_moment_rejected(self, make):
        k = make()
        assert math.isfinite(kernel_moment(k, 2))
        with pytest.raises(InvalidParameterError, match="overflows"):
            b_epsilon(k)


class TestBEpsilon:
    def test_cd_closed_form(self):
        k = bernoulli_kernel(0.1, 1.0)
        assert b_epsilon(k) == pytest.approx(2.0 * 0.1**2, rel=1e-13)

    def test_rosenau_value_48(self):
        # 2 * 24 (eps sigma)^4 / eps^2 at eps = sigma = 1; an eps^2 family
        k = rosenau_kernel(1.0, 1.0)
        assert b_epsilon(k) == pytest.approx(48.0, rel=1e-9)

    @pytest.mark.parametrize("make,expect", [(rosenau_kernel, 0.25), (bernoulli_kernel, 0.25)])
    def test_epsilon_scaling_ratio(self, make, expect):
        # both families scale as eps^2: halving eps quarters B
        b1 = b_epsilon(make(0.2, 1.0))
        b2 = b_epsilon(make(0.4, 1.0))
        assert b1 / b2 == pytest.approx(expect, rel=1e-8)


def symbol_deviation(kernel, R):
    """max |A_eps(xi) - sigma^2 xi^2| over 8193 points of |xi| <= R: how far the generator
    is from the heat multiplier."""
    xi = np.linspace(-R, R, 8193)
    return float(np.max(np.abs(generator_symbol(kernel, xi) - kernel.sigma_sq * xi**2)))


class TestSymbolDeviation:
    def test_zero_at_origin(self, ros_kernel):
        xi = 0.0
        assert abs(generator_symbol(ros_kernel, xi) - ros_kernel.sigma_sq * xi**2) == 0.0

    def test_cd_quartic_rate(self):
        # deviation at fixed xi behaves as eps^2 sigma^4 xi^4 / 12
        sigma, R = 1.0, 1.0
        for eps in (0.1, 0.05, 0.025):
            k = bernoulli_kernel(eps, sigma)
            dev = symbol_deviation(k, R)
            predicted = eps**2 * sigma**4 * R**4 / 12.0
            assert dev == pytest.approx(predicted, rel=5e-3)

    def test_rosenau_halving_point(self):
        # at eps sigma xi = 1 the generator is half the heat symbol
        k = rosenau_kernel(0.25, 1.0)
        xi = 1.0 / (0.25 * 1.0)
        dev = abs(generator_symbol(k, xi) - k.sigma_sq * xi**2)
        assert dev == pytest.approx(0.5 * k.sigma_sq * xi**2, rel=1e-12)

    @pytest.mark.parametrize("make", [rosenau_kernel, bernoulli_kernel])
    def test_second_order_consistency(self, make):
        # deviation / eps^2 stays bounded as eps halves repeatedly
        R = 2.0
        ratios = []
        for eps in (0.2, 0.1, 0.05, 0.025):
            k = make(eps, 1.0)
            ratios.append(symbol_deviation(k, R) / eps**2)
        assert max(ratios) <= 2.0 * min(ratios) + 1e-12


class TestSymbolMeasureDuality:
    def test_cd_transform_matches_symbol(self, cd_kernel):
        xi = np.linspace(-64, 64, 501)
        direct = sum(w * np.exp(-1j * xi * v) for v, w in cd_kernel.atoms)
        assert np.max(np.abs(direct - cd_kernel.symbol(xi))) <= 1e-8

    def test_rosenau_transform_matches_symbol(self):
        k = rosenau_kernel(0.7, 1.1)
        scale = 0.7 * math.sqrt(2.0 * 1.1**2 / k.lam)
        v = np.linspace(-45 * scale, 45 * scale, 2_000_001)
        dens = k.density(v)
        for xi in (0.0, 0.5, 3.0, 17.0, 64.0):
            direct = np.trapezoid(dens * np.exp(-1j * xi * v), v)
            assert abs(direct - k.symbol(xi)) <= 1e-8


class TestTabulatedKernel:
    def test_valid_table_roundtrip(self, tmp_path):
        rows = [(2.0, 0.125), (-1.0, 0.25), (0.0, 0.25), (1.0, 0.25), (-2.0, 0.125)]
        k = tabulated_kernel(write_atoms(tmp_path / "atoms.txt", rows), epsilon=0.5, sigma=2.0)
        # unit-scale m2 = 3/2: lam = 4/3, variance eps^2 2 sigma^2 / lam, limiting diffusivity sigma^2
        assert k.lam == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert kernel_moment(k, 2) == pytest.approx(0.5**2 * 2.0 * 2.0**2 / k.lam, rel=1e-15)
        assert k.sigma_sq == pytest.approx(4.0, rel=1e-15)
        assert k.atoms == ((-2.0, 0.125), (-1.0, 0.25), (0.0, 0.25), (1.0, 0.25), (2.0, 0.125))
        xi = np.linspace(-20.0, 20.0, 801)
        direct = sum(w * np.exp(-1j * xi * v) for v, w in k.atoms)
        assert np.max(np.abs(direct - k.symbol(xi))) <= 1e-14
        assert np.max(np.abs(1.0 - direct - k.one_minus_symbol(xi))) <= 1e-14

    def test_no_cancellation_near_origin(self, tmp_path):
        rows = [(-3.0, 0.2), (-1.0, 0.3), (1.0, 0.3), (3.0, 0.2)]
        k = tabulated_kernel(write_atoms(tmp_path / "atoms.txt", rows), epsilon=0.01, sigma=1.0)
        xi = np.array([1e-9, 1e-6, 1e-3])
        # A_eps(xi) = sigma^2 xi^2 (1 + O(eps^2 xi^2)); the naive 1 - symbol gives 0 at 1e-9
        assert np.allclose(generator_symbol(k, xi), xi**2, rtol=1e-9, atol=0.0)

    def test_bad_mass_rejected(self, tmp_path):
        path = write_atoms(tmp_path / "bad.txt", [(-1.0, 0.45), (1.0, 0.45)])
        with pytest.raises(InvalidKernelError, match="unit mass"):
            tabulated_kernel(path, epsilon=1.0, sigma=1.0)

    def test_nonzero_mean_rejected(self, tmp_path):
        path = write_atoms(tmp_path / "skew.txt", [(-1.0, 0.5), (2.0, 0.5)])
        with pytest.raises(InvalidKernelError, match="mirror-symmetric"):
            tabulated_kernel(path, epsilon=1.0, sigma=1.0)

    @pytest.mark.parametrize("rows,match", [
        ([(-1.0, -0.5), (0.0, 2.0), (1.0, -0.5)], "positive"),
        ([(-1.0, 0.5), (1.0, float("nan"))], "finite"),
        ([(-math.inf, 0.5), (math.inf, 0.5)], "finite"),
        ([(-1.0, 0.25), (-1.0, 0.25), (1.0, 0.25), (1.0, 0.25)], "distinct"),
        ([(0.0, 1.0)], "second moment"),
        ([(-1e200, 0.5), (1e200, 0.5)], "second moment"),
        ([(-1.0, 0.5, 0.0), (1.0, 0.5, 0.0)], "rows of"),
        ([(-1.0, 0.5 + 5e-11), (1.0, 0.5 + 5e-11)], "unit mass"),  # 1e-10 off, 100x the tolerance
    ], ids=["negative", "nan", "inf", "duplicate", "degenerate", "m2-overflow", "columns", "mass-1e-10"])
    def test_invalid_atoms_rejected(self, rows, match):
        with pytest.raises(InvalidKernelError, match=match):
            atomic_kernel(rows, 0.1, 1.0)


@st.composite
def unit_atoms(draw):
    """Random mirror-symmetric unit-scale atoms, in random order, with unit mass."""
    locs = draw(st.lists(st.floats(0.01, 50.0), min_size=1, max_size=6, unique=True))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(locs), max_size=len(locs)))
    center = draw(st.one_of(st.just(0.0), st.floats(0.01, 1.0)))
    total = 2.0 * math.fsum(raw) + center
    rows = [(s * v, r / total) for v, r in zip(locs, raw) for s in (-1.0, 1.0)]
    if center:
        rows.append((0.0, center / total))
    return draw(st.permutations(rows))


class TestAtomicProperties:
    @settings(max_examples=60, deadline=None, database=None)
    @given(rows=unit_atoms(), eps=st.floats(0.01, 1.0), sigma=st.floats(0.1, 10.0))
    def test_exact_moments_and_symbol(self, rows, eps, sigma):
        k = atomic_kernel(rows, eps, sigma)
        v = np.array([r[0] for r in rows])
        w = np.array([r[1] for r in rows])
        a = eps * sigma
        assert kernel_moment(k, 0) == pytest.approx(1.0, abs=1e-12)
        assert kernel_moment(k, 2) == pytest.approx(a**2 * math.fsum(w * v**2), rel=1e-12)
        assert kernel_moment(k, 2) == pytest.approx(eps**2 * 2.0 * sigma**2 / k.lam, rel=1e-12)
        assert k.sigma_sq == pytest.approx(sigma**2, rel=1e-12)
        assert b_epsilon(k) == pytest.approx(2.0 * a**4 * math.fsum(w * v**4) / eps**2, rel=1e-12)
        xi = np.linspace(-64.0, 64.0, 2049)
        sym, om = k.symbol(xi), k.one_minus_symbol(xi)
        assert np.max(np.abs(sym)) <= 1.0 + 1e-12
        assert np.min(generator_symbol(k, xi)) >= 0.0
        assert np.max(np.abs(sym + om - 1.0)) <= 1e-12

    @settings(max_examples=60, deadline=None, database=None)
    @given(rows=unit_atoms(), data=st.data())
    def test_perturbed_atoms_rejected(self, rows, data):
        rows = [list(r) for r in rows]
        i = data.draw(st.integers(0, len(rows) - 1))
        kind = data.draw(st.sampled_from(["mass", "shift", "negative", "nan", "inf"]))
        if kind == "mass":
            rows = [[v, w * (1.0 + 1e-9)] for v, w in rows]
        elif kind == "shift":
            i = max(range(len(rows)), key=lambda j: abs(rows[j][0]))
            rows[i][0] *= 1.0 + 1e-9
        elif kind == "negative":
            rows[i][1] = -rows[i][1]
        else:
            rows[i][data.draw(st.integers(0, 1))] = float(kind)
        with pytest.raises(InvalidKernelError):
            atomic_kernel(rows, 0.1, 1.0)
