import math

import numpy as np
import pytest

from rosenau import (
    GridSpec,
    bernoulli_kernel,
    cd_wild_solution,
    forward_transform,
    gaussian_field,
    rosenau_kernel,
    rosenau_propagate,
    truncation_order,
    wild_partial_sum,
    wild_solution,
)
from rosenau.errors import InvalidParameterError, UnsupportedKernelError
from rosenau.kernels import generator_symbol
from rosenau.wild import WildTruncation, poisson_tail

from conftest import binomial_atoms


def brute_poisson_tail(mu, n, extra=400):
    """Independent oracle: log-space term summation of the Poisson tail."""
    if mu == 0:
        return 0.0
    total = 0.0
    for k in range(n + 1, n + extra):
        total += math.exp(-mu + k * math.log(mu) - math.lgamma(k + 1))
    return total


class TestTruncationOrder:
    def test_zero_intensity(self):
        assert truncation_order(0.0, 1e-12) == 0

    def test_mu_one_frozen_value(self):
        # brute-force oracle: tail(13) = 4.52e-12 > 1e-12 >= tail(14) = 3.0e-13
        assert brute_poisson_tail(1.0, 13) > 1e-12 >= brute_poisson_tail(1.0, 14)
        assert truncation_order(1.0, 1e-12) == 14

    @pytest.mark.parametrize("mu,tol", [(0.5, 1e-6), (1.0, 1e-12), (7.3, 1e-10), (40.0, 1e-12)])
    def test_minimality_contract(self, mu, tol):
        n = truncation_order(mu, tol)
        assert brute_poisson_tail(mu, n) <= tol
        assert brute_poisson_tail(mu, n - 1) > tol

    def test_tail_matches_oracle(self):
        for mu in (0.3, 2.0, 25.0):
            for n in (0, 3, 30):
                assert poisson_tail(mu, n) == pytest.approx(
                    brute_poisson_tail(mu, n), rel=1e-10, abs=1e-300)

    def test_bad_inputs(self):
        with pytest.raises(InvalidParameterError):
            truncation_order(-1.0, 1e-6)
        with pytest.raises(InvalidParameterError):
            truncation_order(1.0, 1.5)

    def test_truncation_record(self):
        tr = WildTruncation(terms=14, mu=1.0)
        assert 0.0 <= tr.tail_mass <= 1.0
        assert tr.tail_mass == pytest.approx(brute_poisson_tail(1.0, 14), rel=1e-10)


class TestWildPartialSum:
    def test_zero_terms_is_initial_layer(self, grid, gauss_unit, ros_kernel):
        t = 0.4
        mu = ros_kernel.lam * t / ros_kernel.epsilon**2
        out = wild_partial_sum(gauss_unit, ros_kernel, t, 0)
        assert np.max(np.abs(out.values - math.exp(-mu) * gauss_unit.values)) <= 1e-15

    def test_poisson_cdf_mass_at_mu_one(self, grid, gauss_unit):
        # one kept collision at mu = 1 transmits mass 2/e
        k = rosenau_kernel(1.0, 1.0)
        out = wild_partial_sum(gauss_unit, k, 1.0, 1)
        assert out.mass == pytest.approx(0.7357588823, abs=1e-10)

    def test_mass_monotone_in_terms(self, grid, gauss_unit, cd_kernel):
        masses = [wild_partial_sum(gauss_unit, cd_kernel, 1.0, n).mass for n in range(0, 40, 4)]
        assert all(b >= a for a, b in zip(masses, masses[1:]))
        assert masses[-1] <= 1.0 + 1e-12

    @pytest.mark.parametrize("family", ["rosenau", "central-diff"])
    def test_converges_to_propagator(self, grid, gauss_unit, family):
        make = rosenau_kernel if family == "rosenau" else bernoulli_kernel
        k = make(0.5, 1.0)
        t = 2.0
        mu = k.lam * t / k.epsilon**2
        n_star = truncation_order(mu, 1e-12)
        part = wild_partial_sum(gauss_unit, k, t, n_star)
        prop = rosenau_propagate(gauss_unit, k, t)
        assert np.max(np.abs(part.values - prop.values)) <= 1e-10

    def test_parity_preserved(self, grid, cd_kernel):
        # even data and symmetric kernel keep the partial sums real and even
        g0 = gaussian_field(grid, 1.0)
        out = wild_partial_sum(g0, cd_kernel, 1.0, 25)
        assert np.max(np.abs(out.values.imag)) == 0.0  # the Horner loop is real
        vals = out.values.real
        assert np.max(np.abs(vals[1:] - vals[1:][::-1])) <= 1e-13


class TestWildSolution:
    def test_certified_gap(self, grid, gauss_unit, ros_kernel):
        t = 1.0
        res = wild_solution(gauss_unit, ros_kernel, t, tol=1e-12)
        assert not res.delegated
        assert res.truncation.tail_mass <= 1e-12
        prop = rosenau_propagate(gauss_unit, ros_kernel, t)
        assert np.max(np.abs(res.field.values - prop.values)) <= 1e-10

    def test_delegation_beyond_cutoff(self, grid, gauss_unit):
        k = rosenau_kernel(0.01, 1.0)  # mu = t/eps^2 = 2e5 at t = 20
        res = wild_solution(gauss_unit, k, 20.0)
        assert res.delegated
        prop = rosenau_propagate(gauss_unit, k, 20.0)
        assert np.array_equal(res.field.values, prop.values)
        # the exact propagator discards no mass, so its certificate must say so
        assert res.truncation.terms is None and res.truncation.mu == pytest.approx(2e5)
        assert res.truncation.tail_mass == 0.0


class TestCdFundamentalAtoms:
    """The binomial oracle of `cd_wild_solution` (conftest.binomial_atoms)."""

    def test_n0_is_origin(self, cd_kernel):
        assert binomial_atoms(cd_kernel, 0) == ((0.0, 1.0),)

    def test_n2_binomial(self):
        k = bernoulli_kernel(0.5, 1.0)
        a = 0.5
        atoms = dict(binomial_atoms(k, 2))
        assert atoms[-2 * a] == pytest.approx(0.25)
        assert atoms[0.0] == pytest.approx(0.5)
        assert atoms[2 * a] == pytest.approx(0.25)

    def test_n3_binomial(self):
        k = bernoulli_kernel(0.5, 1.0)
        a = 0.5
        atoms = dict(binomial_atoms(k, 3))
        assert atoms[-3 * a] == pytest.approx(1 / 8)
        assert atoms[-a] == pytest.approx(3 / 8)
        assert atoms[a] == pytest.approx(3 / 8)
        assert atoms[3 * a] == pytest.approx(1 / 8)

    def test_weights_sum_to_one(self, cd_kernel):
        for n in (1, 5, 20):
            assert sum(w for _, w in binomial_atoms(cd_kernel, n)) == pytest.approx(1.0, rel=1e-12)


class TestCdWildSolution:
    def test_t0_single_atom(self, cd_kernel):
        d = cd_wild_solution(cd_kernel, 0.0)
        assert d.atoms == ((0.0, 1.0),)
        assert np.max(np.abs(d.density)) == 0.0

    def test_lattice_and_nonnegativity(self):
        k = bernoulli_kernel(0.5, 1.0)
        d = cd_wild_solution(k, 1.0, tol=1e-12)
        a = k.epsilon * k.sigma
        for loc, w in d.atoms:
            assert w >= 0.0
            assert loc / a == pytest.approx(round(loc / a), abs=1e-12)
        assert 1.0 - 1e-12 <= d.total_mass <= 1.0 + 1e-14

    def test_transform_matches_propagator(self):
        k = bernoulli_kernel(0.5, 1.0)
        t, tol = 1.0, 1e-12
        grid = GridSpec(length=160.0, points=2048)
        d = cd_wild_solution(k, t, tol=tol, grid=grid)
        f = forward_transform(d)
        exact = np.exp(-generator_symbol(k, grid.xi()) * t)
        assert np.max(np.abs(f.values - exact)) <= tol * 10

    def test_parity_of_weights(self):
        k = bernoulli_kernel(0.4, 1.0)
        d = cd_wild_solution(k, 0.7)
        table = dict(d.atoms)
        for loc, w in d.atoms:
            assert table[-loc] == pytest.approx(w, rel=1e-13)

    def test_requires_atomic_kernel(self, ros_kernel):
        with pytest.raises(UnsupportedKernelError):
            cd_wild_solution(ros_kernel, 1.0)

    def test_extreme_intensity(self):
        # mu = 20000, four times the direct-summation range of wild_solution
        k = bernoulli_kernel(0.01, 1.0)
        t = 1.0
        grid = GridSpec(length=512.0, points=256)
        d = cd_wild_solution(k, t, grid=grid)
        assert 1.0 - 1e-12 <= d.total_mass <= 1.0
        assert max(abs(loc) for loc, _ in d.atoms) < grid.length / 2
        exact = np.exp(-generator_symbol(k, grid.xi()) * t)
        assert np.max(np.abs(forward_transform(d).values - exact)) <= 1e-13

    @pytest.mark.parametrize("mu", [0.3, 7.0, 50.0, 200.0])
    def test_matches_binomial_mixture(self, mu):
        # independent oracle: Poisson mixture of the binomial convolution
        # powers, summed far enough past mu that its own tail is negligible
        k = bernoulli_kernel(0.5, 1.0)
        t = mu * k.epsilon**2 / k.lam
        mu = k.intensity(t)
        oracle = {}
        for n in range(int(mu + 20.0 * math.sqrt(mu) + 40.0)):
            p = math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1))
            for loc, w in binomial_atoms(k, n):
                oracle[loc] = oracle.get(loc, 0.0) + p * w
        d = cd_wild_solution(k, t)
        assert len(d.atoms) == 2 * truncation_order(mu, 1e-12) + 1
        assert max(abs(w - oracle[loc]) for loc, w in d.atoms) <= 1e-13

    @pytest.mark.parametrize("t", [24.75, 25.0, float(np.nextafter(25.0, 26.0))])
    def test_mass_within_certificate(self, t):
        # mu = 4950 and 5000, on both sides of t = 25
        d = cd_wild_solution(bernoulli_kernel(0.1, 1.0), t, tol=1e-12)
        assert 1.0 - 1e-12 <= d.total_mass <= 1.0


# scipy.special is a test-only oracle: the package itself never imports scipy
LADDER_MU = [0.3, 7.0, 50.0, 200.0, 792.0, 1980.0, 4950.0, 5000.0, 20000.0]


def gammainc_truncation_order(mu, tol):
    """Independent oracle: doubling and bisection on scipy's incomplete gamma."""
    from scipy.special import gammainc

    hi = 8
    while gammainc(hi + 1, mu) > tol:
        hi *= 2
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if gammainc(mid + 1, mu) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return lo


class TestScipyOracles:
    @pytest.mark.parametrize("mu", LADDER_MU)
    def test_cd_weights_match_ive(self, mu):
        from scipy.special import ive

        k = bernoulli_kernel(0.1, 1.0)
        t = mu * k.epsilon**2 / k.lam
        mu = k.intensity(t)
        d = cd_wild_solution(k, t)
        a = k.epsilon * k.sigma
        sites = np.array([round(loc / a) for loc, _ in d.atoms])
        weights = np.array([w for _, w in d.atoms])
        n_star = truncation_order(mu, 1e-12)
        exact = ive(np.abs(sites), mu)
        assert np.max(np.abs(weights - exact)) <= 1e-14
        # relative accuracy down to the far tail, where the recurrence starts
        far = exact >= 1e-290
        assert np.max(np.abs(weights[far] / exact[far] - 1.0)) <= 1e-11
        # every site whose weight is well inside the normal range is kept
        normal = np.flatnonzero(ive(np.arange(n_star + 1), mu) >= 1e-300)
        assert set(normal.tolist()) <= set(np.abs(sites).tolist())

    @pytest.mark.parametrize("mu", [200.0, 792.0, 1980.0, 4950.0, 5000.0, 20000.0])
    def test_poisson_tail_matches_gammainc(self, mu):
        from scipy.special import gammainc

        root = math.sqrt(mu)
        for z in (-4.0, -1.0, 0.0, 1.0, 4.0, 7.0, 12.0):
            n = int(mu + z * root)
            assert poisson_tail(mu, n) == pytest.approx(gammainc(n + 1, mu), rel=1e-10)

    @pytest.mark.parametrize("mu", LADDER_MU)
    @pytest.mark.parametrize("tol", [1e-6, 1e-12])
    def test_truncation_order_matches_gammainc_bisection(self, mu, tol):
        assert truncation_order(mu, tol) == gammainc_truncation_order(mu, tol)

    @pytest.mark.parametrize("mu", LADDER_MU)
    def test_window_certificate_matches_gammainc(self, mu):
        from scipy.special import gammainc, gammaincc

        # P(X < n_lo) = Q(n_lo, mu) and P(X > N*) = P(N* + 1, mu); no spatial work is
        # needed, so a coarse grid keeps the Horner loop short
        k = rosenau_kernel(0.1, 1.0)
        t = mu * k.epsilon**2 / k.lam
        tr = wild_solution(gaussian_field(GridSpec(160.0, 64), 1.0), k, t).truncation
        assert tr.terms == truncation_order(tr.mu, 0.5e-12)
        exact = gammaincc(tr.lowest, tr.mu) + gammainc(tr.terms + 1, tr.mu)
        assert tr.tail_mass == pytest.approx(exact, rel=1e-10)
        assert tr.tail_mass <= 1e-12
        # the lower cut is the largest order whose lower tail fits half of tol
        assert gammaincc(tr.lowest, tr.mu) <= 0.5e-12 < gammaincc(tr.lowest + 1, tr.mu)

    @pytest.mark.parametrize("family", ["rosenau", "central-diff"])
    @pytest.mark.parametrize("mu", LADDER_MU)
    def test_window_sum_matches_propagator(self, grid, gauss_unit, family, mu):
        # the discarded Poisson mass bounds the gap at every xi, plus the
        # conditioning of Mhat^n on the rounding of Mhat, about n ~ mu ulps
        k = (rosenau_kernel if family == "rosenau" else bernoulli_kernel)(0.1, 1.0)
        t = mu * k.epsilon**2 / k.lam
        mu = k.intensity(t)
        res = wild_solution(gauss_unit, k, t)
        assert not res.delegated
        exact = np.exp(-mu * k.one_minus_symbol(grid.xi())) * gauss_unit.values
        bound = res.truncation.tail_mass * np.max(np.abs(gauss_unit.values)) + 8 * mu * 2.0**-53
        assert np.max(np.abs(res.field.values - exact)) <= bound
