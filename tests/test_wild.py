import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rosenau import wild
from rosenau.analysis import INITIAL_PRESETS, initial_by_name
from rosenau.errors import InvalidParameterError, UnsupportedKernelError
from rosenau.kernels import bernoulli_kernel, generator_symbol, kernel_by_name, rosenau_kernel
from rosenau.spectral import (GridSpec, MixedDistribution, default_grid, forward_transform,
                              gaussian_field, heat_propagate, rosenau_propagate)
from rosenau.wild import (WILD_TOL, _MILLER_MARGIN, _poisson_tails, _reach, cd_wild_solution,
                          truncation_order, wild_partial_sum, wild_solution)

from conftest import binomial_atoms, window_sum_oracle, write_atoms


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
            lo, _, above, _ = _poisson_tails(mu)
            assert lo == 0
            for n in (0, 3, 30):
                assert above[n] == pytest.approx(brute_poisson_tail(mu, n), rel=1e-10, abs=1e-300)

    def test_bad_inputs(self):
        with pytest.raises(InvalidParameterError):
            truncation_order(-1.0, 1e-6)
        with pytest.raises(InvalidParameterError):
            truncation_order(1.0, 1.5)

    def test_truncation_record(self, gauss_unit):
        # mu = 1: nothing is cut below, so tail_mass is the upper tail beyond N* = 14
        tr = wild_solution(gauss_unit, rosenau_kernel(1.0, 1.0), 1.0).truncation
        assert (tr.terms, tr.lowest, tr.mu) == (14, 0, 1.0)
        lo, _, above, _ = _poisson_tails(1.0)
        assert tr.tail_mass == above[14 - lo]
        assert tr.tail_mass == pytest.approx(brute_poisson_tail(1.0, 14), rel=1e-10)
        assert tr.error_bound == tr.tail_mass + 8 * 2.0**-53


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
        res = wild_solution(gauss_unit, ros_kernel, t)
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
        d = cd_wild_solution(k, 1.0)
        a = k.epsilon * k.sigma
        for loc, w in d.atoms:
            assert w >= 0.0
            assert loc / a == pytest.approx(round(loc / a), abs=1e-12)
        assert 1.0 - 1e-12 <= d.total_mass <= 1.0 + 1e-14

    def test_transform_matches_propagator(self):
        k = bernoulli_kernel(0.5, 1.0)
        t = 1.0
        grid = GridSpec(length=160.0, points=2048)
        d = cd_wild_solution(k, t)
        f = forward_transform(MixedDistribution(grid, np.zeros(grid.points), d.atoms))
        exact = np.exp(-generator_symbol(k, grid.xi()) * t)
        assert np.max(np.abs(f.values - exact)) <= WILD_TOL * 10

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
        d = cd_wild_solution(k, t)
        assert 1.0 - 1e-12 <= d.total_mass <= 1.0
        assert max(abs(loc) for loc, _ in d.atoms) < grid.length / 2
        f = forward_transform(MixedDistribution(grid, np.zeros(grid.points), d.atoms))
        exact = np.exp(-generator_symbol(k, grid.xi()) * t)
        # the transform misses at most the mass the cut discarded, plus rounding
        assert np.max(np.abs(f.values - exact)) <= (1.0 - d.total_mass) + 1e-14

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
        assert max(abs(w - oracle[loc]) for loc, w in d.atoms) <= 1e-13
        a = k.epsilon * k.sigma
        edge = round(max(loc for loc, _ in d.atoms) / a)
        assert len(d.atoms) == 2 * edge + 1

        def mass(lo, hi=math.inf):
            """oracle mass at lo < |m| <= hi, correctly rounded"""
            return math.fsum(w for loc, w in oracle.items() if (lo + 0.5) * a < abs(loc) < (hi + 0.5) * a)

        assert mass(edge) <= WILD_TOL
        # the certificate: the sites out to the Bernstein reach that the window drops
        # carry WILD_TOL/2 at most, and the window is the smallest so
        reach = _reach(mu, math.log(4.0 / WILD_TOL))
        assert mass(edge, reach) <= WILD_TOL / 2
        if edge > 0:
            assert mass(edge - 1, reach) > WILD_TOL / 2

    @pytest.mark.parametrize("t", [24.75, 25.0, float(np.nextafter(25.0, 26.0))])
    def test_mass_within_certificate(self, t):
        # mu = 4950 and 5000, on both sides of t = 25
        d = cd_wild_solution(bernoulli_kernel(0.1, 1.0), t)
        assert 1.0 - 1e-12 <= d.total_mass <= 1.0

    def test_sized_by_reach_alone(self, monkeypatch):
        # no Poisson order table: Miller starts _MILLER_MARGIN past _reach(mu, 2c)
        def forbidden(*args):
            raise AssertionError("the lattice window needs no Poisson order table")

        monkeypatch.setattr(wild, "truncation_order", forbidden)
        monkeypatch.setattr(wild, "_poisson_tails", forbidden)
        sizes = []
        bessel = wild._bessel_weights
        monkeypatch.setattr(wild, "_bessel_weights", lambda mu, n: sizes.append(n) or bessel(mu, n))
        k = bernoulli_kernel(0.1, 1.0)
        d = cd_wild_solution(k, 5000.0 * k.epsilon**2 / k.lam)
        assert [n + _MILLER_MARGIN for n in sizes] == [846]
        assert len(d.atoms) == 2 * 511 + 1

    @pytest.mark.parametrize("mu", [math.inf, 1e20])
    def test_unreachable_intensity_rejected(self, monkeypatch, mu):
        # mu = inf has no reach, and at 1e20 Miller would start past 1e9: both are
        # rejected before numpy is asked for any array
        k = bernoulli_kernel(1e-150, 1.0)
        t = 1e10 if mu == math.inf else mu * k.epsilon**2 / k.lam
        assert k.intensity(t) == pytest.approx(mu)
        monkeypatch.setattr(wild, "np", None)
        with pytest.raises(InvalidParameterError):
            cd_wild_solution(k, t)


# scipy.special is a test-only oracle: the package itself never imports scipy
LADDER_MU = [0.3, 7.0, 50.0, 200.0, 792.0, 1980.0, 4950.0, 5000.0, 20000.0]
# the largest |m| cd_wild_solution kept when it summed the dropped sites out to
# N* = truncation_order(mu, WILD_TOL/2) rather than out to the Bernstein reach
EDGE_OUT_TO_N_STAR = {0.3: 8, 7.0: 22, 50.0: 53, 200.0: 103, 792.0: 204, 1980.0: 322,
                      4950.0: 509, 5000.0: 511, 20000.0: 1022, 9.9e4: 2273}


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
    @pytest.mark.parametrize("mu", LADDER_MU + [9.9e4])
    def test_cd_weights_match_ive(self, mu):
        from scipy.special import ive

        widest = EDGE_OUT_TO_N_STAR[mu]
        k = bernoulli_kernel(0.1, 1.0)
        t = mu * k.epsilon**2 / k.lam
        mu = k.intensity(t)
        d = cd_wild_solution(k, t)
        a = k.epsilon * k.sigma
        sites = np.array([round(loc / a) for loc, _ in d.atoms])
        weights = np.array([w for _, w in d.atoms])
        exact = ive(np.abs(sites), mu)
        assert np.max(np.abs(weights - exact)) <= 1e-14
        # relative accuracy down to the far tail, where the recurrence starts
        far = exact >= 1e-290
        assert np.max(np.abs(weights[far] / exact[far] - 1.0)) <= 1e-11
        # the window is symmetric, no wider than the one sized out to N*, and certified by
        # correctly rounded sums: the sites it drops out to the reach carry at most
        # WILD_TOL/2, one site fewer would drop more, and the sites beyond the reach
        # carry at most WILD_TOL/2 too, as Bernstein's bound says
        edge = int(np.max(sites))
        assert np.array_equal(sites, np.arange(-edge, edge + 1))
        assert edge <= widest
        assert 1.0 - WILD_TOL <= d.total_mass <= 1.0
        reach = _reach(mu, math.log(4.0 / WILD_TOL))
        assert 2.0 * math.fsum(ive(np.arange(edge + 1, reach + 1), mu)) <= WILD_TOL / 2
        assert edge == 0 or 2.0 * math.fsum(ive(np.arange(edge, reach + 1), mu)) > WILD_TOL / 2
        assert 2.0 * math.fsum(ive(np.arange(reach + 1, 4 * reach + 100), mu)) <= WILD_TOL / 2

    @pytest.mark.parametrize("mu", [200.0, 792.0, 1980.0, 4950.0, 5000.0, 20000.0])
    def test_poisson_tail_matches_gammainc(self, mu):
        from scipy.special import gammainc

        root = math.sqrt(mu)
        lo, _, above, _ = _poisson_tails(mu)
        for z in (-4.0, -1.0, 0.0, 1.0, 4.0, 7.0, 12.0):
            n = int(mu + z * root)
            assert above[n - lo] == pytest.approx(gammainc(n + 1, mu), rel=1e-10)

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
        # the certificate bounds the gap at every xi: the discarded Poisson mass plus
        # the conditioning of Mhat^n on the rounding of Mhat, about n ~ mu ulps
        k = (rosenau_kernel if family == "rosenau" else bernoulli_kernel)(0.1, 1.0)
        t = mu * k.epsilon**2 / k.lam
        mu = k.intensity(t)
        res = wild_solution(gauss_unit, k, t)
        assert not res.delegated
        exact = np.exp(-mu * k.one_minus_symbol(grid.xi())) * gauss_unit.values
        bound = res.truncation.error_bound * np.max(np.abs(gauss_unit.values))
        assert np.max(np.abs(res.field.values - exact)) <= bound

    @pytest.mark.parametrize("mu", [5000.0, 2e4, 9.9e4])
    def test_window_sum_matches_propagator_on_default_grid(self, mu):
        # the rounding of Mhat, not the cut, carries the excess over tail_mass here: the
        # propagator is within 2e-16 of a long-double exp(-mu (1 - Mhat)) g0hat, and the
        # Wild sum within tail_mass of the one built from the double-rounded Mhat
        k = rosenau_kernel(0.1, 1.0)
        t = mu * k.epsilon**2 / k.lam
        g0 = gaussian_field(default_grid(1.0, t, n=4096, m2=1.0), 1.0)
        res = wild_solution(g0, k, t)
        assert not res.delegated
        exact = rosenau_propagate(g0, k, t).values
        bound = res.truncation.error_bound * np.max(np.abs(g0.values))
        assert np.max(np.abs(res.field.values - exact)) <= bound


class TestSemigroup:
    """Propagating by t1 and then by t2 is propagating by t1 + t2.  The heat and kinetic
    multipliers compose up to rounding; a Wild sum applied twice matches one Wild sum
    within the three certificates, each its discarded Poisson mass plus the ~mu ulps
    that Mhat^n adds to the rounding of Mhat (WildTruncation.error_bound)."""

    CUSTOM_ATOMS = [(-2.0, 0.2), (-1.0, 0.3), (1.0, 0.3), (2.0, 0.2)]

    @pytest.fixture(scope="class")
    def custom_kernel(self, tmp_path_factory):
        return "custom:" + write_atoms(tmp_path_factory.mktemp("atoms") / "four.txt",
                                       self.CUSTOM_ATOMS)

    @given(family=st.sampled_from(["rosenau", "central-diff", "custom"]),
           initial=st.sampled_from(sorted(INITIAL_PRESETS)),
           eps=st.sampled_from([0.3, 0.1]),
           t1=st.sampled_from([0.05, 0.5, 2.0]),
           t2=st.sampled_from([0.1, 1.0, 3.0]))
    @settings(max_examples=30, deadline=None, database=None, derandomize=True)
    def test_two_steps_are_one(self, custom_kernel, family, initial, eps, t1, t2):
        k = kernel_by_name(custom_kernel if family == "custom" else family, eps, 1.0)
        m2 = INITIAL_PRESETS[initial][1](k.sigma_sq)
        g0 = initial_by_name(initial, default_grid(1.0, t1 + t2, n=2048, m2=m2), k.sigma_sq)
        peak = np.max(np.abs(g0.values))
        for name, step in (("heat", lambda f, t: heat_propagate(f, k.sigma_sq, t)),
                           ("kinetic", lambda f, t: rosenau_propagate(f, k, t))):
            gap = np.max(np.abs(step(step(g0, t1), t2).values - step(g0, t1 + t2).values))
            assert gap <= 1e-14 * peak, name
        first = wild_solution(g0, k, t1)
        second = wild_solution(first.field, k, t2)
        once = wild_solution(g0, k, t1 + t2)
        assert not (first.delegated or second.delegated or once.delegated)
        bound = sum(r.truncation.error_bound for r in (first, second, once)) * peak
        assert np.max(np.abs(second.field.values - once.field.values)) <= bound


class TestLiveSpanHorner:
    """The Horner loop on the live span of Mhat^n_lo g0hat returns, bit for bit, what
    the loop over every node returns (conftest.window_sum_oracle)."""

    @pytest.mark.parametrize("family", ["rosenau", "central-diff"])
    @pytest.mark.parametrize("mu", [0.3, 7.0, 200.0, 5000.0, 2e4, 9.9e4])
    @pytest.mark.parametrize("initial", ["gaussian-unit", "mixture-unit"])
    @pytest.mark.parametrize("points", [256, 4096])
    def test_bitwise_full_grid(self, family, mu, initial, points):
        k = (rosenau_kernel if family == "rosenau" else bernoulli_kernel)(0.1, 1.0)
        t = mu * k.epsilon**2 / k.lam
        g0 = initial_by_name(initial, default_grid(1.0, t, n=points))
        res = wild_solution(g0, k, t)
        tr = res.truncation
        lo, pmf, _, _ = _poisson_tails(tr.mu)
        expected = window_sum_oracle(g0, k, pmf[tr.lowest - lo:tr.terms + 1 - lo], tr.lowest)
        # every bit, the sign of each zero included
        assert res.field.values.tobytes() == expected.tobytes()
        n = max(int(mu), 3)
        expected = window_sum_oracle(g0, k, pmf[:max(n + 1 - lo, 0)], lo)
        assert np.array_equal(wild_partial_sum(g0, k, t, n).values, expected)
