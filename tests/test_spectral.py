import itertools
import math

import numpy as np
import pytest

from rosenau import (
    GridSpec,
    MixedDistribution,
    SpectralField,
    bernoulli_kernel,
    default_grid,
    delta_field,
    dilate,
    forward_transform,
    gaussian_field,
    heat_propagate,
    inverse_transform,
    load_distribution,
    regularized_propagator,
    regularized_solution,
    rosenau_kernel,
    rosenau_propagate,
    save_distribution,
    singular_split,
)
from rosenau.errors import (
    GridTooSmallError,
    InvalidParameterError,
    ResampleError,
    SymmetryError,
)
from rosenau.analysis import frame_scale
from rosenau.spectral import (BAND_REFINE, EXP_UNDERFLOW, SYM_TOL, _exp, _hermitian_defect,
                              field_from_symbol, mass_leak_estimate, require_grid_contains)
from rosenau.wild import cd_wild_solution, wild_partial_sum

from conftest import hermitian_defect_oracle, inverse_transform_oracle


def bits(x):
    """The float64 bit patterns of x: equal bits mean equal values, signed zeros and NaN too."""
    return np.asarray(x, dtype=float).view(np.int64)


def oracle_fields(grid):
    """(values, atoms) pairs: Hermitian, near-Hermitian on both sides of SYM_TOL,
    with declared atoms, with zeros of both signs and with NaN."""
    n, rng = grid.points, np.random.default_rng(grid.points)
    herm = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    herm[1:] = 0.5 * (herm[1:] + np.conj(herm[1:][::-1]))  # v_N-k = conj(v_k) exactly
    peak = np.max(np.abs(herm))
    fields = [(herm, ())]
    for rel in (1e-12, 2e-10, 1e-9, 3e-9, 1e-6):
        noise = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        fields.append((herm + rel * peak * noise / np.max(np.abs(noise)), ()))
    xi, atoms = grid.xi(), ((-2.0 * grid.dv, 0.25), (2.0 * grid.dv, 0.25))
    gauss = np.exp(-0.5 * xi**2) + sum(w * np.exp(-1j * xi * loc) for loc, w in atoms)
    fields += [(gauss, atoms), (gauss, atoms[:1])]
    zeros = herm.copy()
    zeros[[1, n - 1]] = 0.0
    zeros[[2, n - 2]] = complex(-0.0, -0.0)
    zeros[[3, n - 3]] = complex(-0.0, 0.0), complex(0.0, -0.0)
    fields += [(zeros, ()), (np.full(n, complex(-0.0, -0.0)), ()), (np.zeros(n, complex), ())]
    for at, value in ((5, np.nan), (n // 2, complex(np.nan, 1.0)), (n // 2, complex(0.0, np.nan))):
        nan = herm.copy()
        nan[at] = value
        fields.append((nan, ()))
    return fields


class TestGridSpec:
    def test_rejects_bad_points(self):
        with pytest.raises(InvalidParameterError):
            GridSpec(10.0, 100)  # not a power of two
        with pytest.raises(InvalidParameterError):
            GridSpec(10.0, 8)  # too few
        with pytest.raises(InvalidParameterError):
            GridSpec(-1.0, 64)

    def test_conjugate_relations(self):
        g = GridSpec(40.0, 1024)
        assert g.dv == pytest.approx(40.0 / 1024)
        assert g.dxi == pytest.approx(2 * math.pi / 40.0)
        assert g.nyquist == pytest.approx(math.pi / g.dv)
        assert g.xi()[g.points // 2] == 0.0
        assert g.v()[g.points // 2] == 0.0

    def test_nodes_are_shared_and_read_only(self):
        g = GridSpec(40.0, 1024)
        assert g.xi() is g.xi() and g.v() is g.v()
        for nodes in (g.xi(), g.v()):
            with pytest.raises(ValueError):
                nodes[0] = 1.0
            with pytest.raises(ValueError):
                nodes *= 2.0
        # the last grid's v() equals g.xi() value for value, and still has its own array
        grids = (g, GridSpec(40.0, 2048), GridSpec(41.0, 1024), GridSpec(1024 * g.dxi, 1024))
        assert np.array_equal(grids[-1].v(), g.xi())
        arrays = [nodes for h in grids for nodes in (h.xi(), h.v())]
        for a, b in itertools.combinations(arrays, 2):
            assert not np.shares_memory(a, b)


class TestExp:
    """``_exp`` skips numpy's slow path on arguments whose exp underflows to +0.0 and
    keeps every bit of np.exp, its result type included."""

    @staticmethod
    def same(y):
        got, want = _exp(y), np.exp(y)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.array_equal(bits(got), bits(want))

    def test_dense_sweep_across_the_underflow(self):
        y = np.linspace(-747.0, -744.0, 300_001)
        assert np.all(np.exp(y[y < EXP_UNDERFLOW]) == 0.0) and np.exp(-744.0) > 0.0
        self.same(y)
        self.same(y[::-1].copy())

    def test_subnormal_results_and_mixed_ranges(self):
        tiny = math.log(np.finfo(float).tiny)  # exp below this is subnormal
        self.same(np.linspace(-745.2, tiny, 10_001))
        rng = np.random.default_rng(18)
        self.same(-rng.uniform(0.0, 1e5, 16384))
        self.same(np.array([-1e308, -746.0, -745.9, -0.0, 0.0, 1.0]))

    def test_non_finite_and_nan(self):
        for y in ([-np.inf, -1000.0, 0.0], [np.inf, -800.0], [np.nan, -800.0, -1.0],
                  [-800.0, np.nan], [np.nan], [np.inf, -np.inf, np.nan, -746.5]):
            self.same(np.array(y))
        assert np.isnan(_exp(np.array([-900.0, np.nan]))[1])

    def test_empty_scalar_and_zero_d(self):
        for y in (np.array([]), np.empty((0, 3)), np.array(-800.0), np.array(-1.5), -800.0, -2.0,
                  np.array(np.nan)):
            self.same(y)

    def test_no_underflow(self):
        rng = np.random.default_rng(7)
        for y in (-rng.uniform(0.0, 700.0, 4097), rng.standard_normal((8, 16)), np.zeros(5)):
            self.same(y)


@pytest.mark.parametrize("t", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call", ["heat_propagate", "rosenau_propagate", "regularized_solution",
                                  "singular_split", "frame_scale", "wild_partial_sum",
                                  "cd_wild_solution"])
def test_times_must_be_finite_and_nonnegative(grid, gauss_unit, call, t):
    kernel = bernoulli_kernel(0.3, 1.0) if call == "cd_wild_solution" else rosenau_kernel(0.3, 1.0)
    calls = {
        "heat_propagate": lambda: heat_propagate(gauss_unit, 1.0, t),
        "rosenau_propagate": lambda: rosenau_propagate(gauss_unit, kernel, t),
        "regularized_solution": lambda: regularized_solution(gauss_unit, kernel, t),
        "singular_split": lambda: singular_split(kernel, t, grid),
        "frame_scale": lambda: frame_scale(t),
        "wild_partial_sum": lambda: wild_partial_sum(gauss_unit, kernel, t, 10),
        "cd_wild_solution": lambda: cd_wild_solution(kernel, t),
    }
    with pytest.raises(InvalidParameterError, match="finite and nonnegative"):
        calls[call]()


class TestForwardTransform:
    def test_unit_atom_gives_constant_one(self):
        g = GridSpec(20.0, 64)
        d = MixedDistribution(grid=g, density=np.zeros(64), atoms=((0.0, 1.0),))
        f = forward_transform(d)
        assert np.max(np.abs(f.values - 1.0)) <= 1e-15

    def test_sampled_gaussian_matches_closed_form(self):
        # omega_sigma profile: density of N(0, 2 sigma^2), transform exp(-sigma^2 xi^2)
        sigma = 1.0
        g = GridSpec(40.0 * sigma, 1024)
        v = g.v()
        dens = np.exp(-(v**2) / (4 * sigma**2)) / math.sqrt(4 * math.pi * sigma**2)
        f = forward_transform(MixedDistribution(grid=g, density=dens))
        exact = np.exp(-(sigma * g.xi()) ** 2)
        assert np.max(np.abs(f.values - exact)) <= 1e-10

    def test_two_half_atoms_give_cosine(self):
        g = GridSpec(20.0, 128)
        a = 0.7
        d = MixedDistribution(grid=g, density=np.zeros(128), atoms=((-a, 0.5), (a, 0.5)))
        f = forward_transform(d)
        assert np.max(np.abs(f.values - np.cos(a * g.xi()))) <= 1e-14

    def test_mass_preserved_at_zero(self):
        g = GridSpec(30.0, 256)
        dens = np.exp(-np.abs(g.v()))
        d = MixedDistribution(grid=g, density=dens, atoms=((1.0, 0.25),))
        f = forward_transform(d)
        assert f.mass == pytest.approx(d.total_mass, rel=1e-13)


class TestHeatPropagate:
    def test_t0_identity(self, grid, gauss_unit):
        out = heat_propagate(gauss_unit, 1.0, 0.0)
        assert np.array_equal(out.values, gauss_unit.values)

    def test_delta_gives_heat_kernel_transform(self, grid):
        t, sig2 = 2.5, 1.0
        out = heat_propagate(delta_field(grid), sig2, t)
        assert np.max(np.abs(out.values - np.exp(-sig2 * grid.xi() ** 2 * t))) == 0.0

    def test_semigroup(self, grid, gauss_unit):
        once = heat_propagate(gauss_unit, 1.0, 3.0)
        twice = heat_propagate(heat_propagate(gauss_unit, 1.0, 1.2), 1.0, 1.8)
        assert np.max(np.abs(once.values - twice.values)) <= 1e-13

    def test_negative_time_rejected(self, grid, gauss_unit):
        with pytest.raises(InvalidParameterError):
            heat_propagate(gauss_unit, 1.0, -0.1)


class TestRosenauPropagate:
    def test_t0_identity(self, grid, gauss_unit, ros_kernel):
        out = rosenau_propagate(gauss_unit, ros_kernel, 0.0)
        assert np.max(np.abs(out.values - gauss_unit.values)) == 0.0

    def test_mass_conserved_exactly(self, grid, gauss_unit, ros_kernel, cd_kernel):
        for k in (ros_kernel, cd_kernel):
            for t in (0.1, 1.0, 10.0):
                out = rosenau_propagate(gauss_unit, k, t)
                assert out.mass == gauss_unit.mass

    def test_cd_multiplier_at_scheme_nyquist(self, grid):
        eps, sigma, t = 0.25, 1.0, 0.5
        k = bernoulli_kernel(eps, sigma)
        sol = rosenau_propagate(delta_field(grid), k, t)
        xi_star = math.pi / (eps * sigma)
        expect = math.exp(-4.0 * t / eps**2)
        assert complex(sol.at(np.array([xi_star]))[0]).real == pytest.approx(expect, rel=1e-12)

    def test_multiplier_modulus_bounded(self, grid, ros_kernel, cd_kernel):
        for k in (ros_kernel, cd_kernel):
            sol = rosenau_propagate(delta_field(grid), k, 2.0)
            assert np.max(np.abs(sol.values)) <= 1.0 + 1e-14

    def test_semigroup(self, grid, gauss_unit, ros_kernel, cd_kernel):
        for k in (ros_kernel, cd_kernel):
            once = rosenau_propagate(gauss_unit, k, 3.0)
            twice = rosenau_propagate(rosenau_propagate(gauss_unit, k, 1.2), k, 1.8)
            assert np.max(np.abs(once.values - twice.values)) <= 1e-13


class TestSingularSplit:
    def test_t0(self, grid, ros_kernel):
        g1, w = singular_split(ros_kernel, 0.0, grid)
        assert w == 1.0
        assert np.max(np.abs(g1.values)) == 0.0

    def test_atom_weight_exponential(self, grid):
        k = rosenau_kernel(1.0, 1.0)  # lam = sigma^2 = 1
        _, w = singular_split(k, 1.0, grid)
        assert w == pytest.approx(0.3678794412, abs=1e-10)

    def test_regular_part_decays(self):
        # eps sigma xi_max >= 100 and mu = 33 make G1 at Nyquist < 1e-12
        k = rosenau_kernel(0.3, 1.0)
        g = GridSpec(length=math.pi * 2048 / (110.0 / 0.3), points=2048)
        assert k.scale * g.xi()[-1] >= 100.0
        g1, _ = singular_split(k, 3.0, g)
        assert abs(g1.values[-1]) <= 1e-12

    def test_split_reproduces_propagator(self, grid, ros_kernel, cd_kernel):
        for k in (ros_kernel, cd_kernel):
            t = 1.7
            g1, w = singular_split(k, t, grid)
            fund = rosenau_propagate(delta_field(grid), k, t)
            assert np.max(np.abs(g1.values + w - fund.values)) <= 1e-15


class TestRegularizedPropagator:
    def test_unit_mass_all_times(self, grid, ros_kernel):
        for t in (0.0, 0.5, 4.0):
            p = regularized_propagator(ros_kernel, t, grid)
            assert p.mass == pytest.approx(1.0, abs=1e-14)

    def test_t0_equals_symbol(self, grid, ros_kernel):
        p = regularized_propagator(ros_kernel, 0.0, grid)
        assert np.max(np.abs(p.values - ros_kernel.symbol(grid.xi()))) <= 1e-15

    def test_decomposition_residual(self, grid):
        # P_reg + (1 - Mhat) exp(-mu) must reproduce the kinetic multiplier
        k = rosenau_kernel(0.3, 1.0)
        t = 2.0
        p = regularized_propagator(k, t, grid)
        mu = k.lam * t / k.epsilon**2
        xi = grid.xi()
        recon = p.values + k.one_minus_symbol(xi) * math.exp(-mu)
        fund = rosenau_propagate(delta_field(grid), k, t)
        assert np.max(np.abs(recon - fund.values)) <= 1e-14

    def test_solution_matches_propagator_for_delta(self, grid, ros_kernel):
        t = 1.3
        a = regularized_solution(delta_field(grid), ros_kernel, t)
        b = regularized_propagator(ros_kernel, t, grid)
        assert np.max(np.abs(a.values - b.values)) == 0.0

    def test_gap_to_full_solution(self, grid, gauss_unit, ros_kernel):
        # g_eps - g_reg = g0 (1 - Mhat) exp(-mu), sup bounded by 2 exp(-mu)
        t = 0.5
        mu = ros_kernel.lam * t / ros_kernel.epsilon**2
        full = rosenau_propagate(gauss_unit, ros_kernel, t)
        reg = regularized_solution(gauss_unit, ros_kernel, t)
        gap = full.values - reg.values
        explicit = gauss_unit.values * ros_kernel.one_minus_symbol(grid.xi()) * math.exp(-mu)
        assert np.max(np.abs(gap - explicit)) <= 1e-15
        assert np.max(np.abs(gap)) <= 2.0 * math.exp(-mu)


class TestInverseTransform:
    def test_gaussian_roundtrip(self):
        g = GridSpec(60.0, 2048)
        dens = np.exp(-(g.v() ** 2) / 4.0) / math.sqrt(4 * math.pi)
        d = MixedDistribution(grid=g, density=dens)
        back = inverse_transform(forward_transform(d))
        assert np.max(np.abs(back.density - dens)) <= 1e-10

    def test_constant_field_with_declared_atom(self):
        g = GridSpec(20.0, 64)
        f = delta_field(g)
        d = inverse_transform(f, atoms=((0.0, 1.0),))
        assert np.max(np.abs(d.density)) <= 1e-12
        assert d.atoms == ((0.0, 1.0),)

    def test_atoms_leave_the_input_unchanged(self):
        g = GridSpec(20.0, 64)
        f = field_from_symbol(g, lambda z: 0.5 + 0.5 * np.cos(np.asarray(z)))
        before = f.values.copy()
        inverse_transform(f, atoms=((-1.0, 0.25), (1.0, 0.25)))
        assert np.array_equal(f.values, before)

    def test_heat_field_inverts_to_heat_kernel(self):
        # L >= 40 sigma sqrt(1+t) keeps the L1 error below 1e-8
        sigma, t = 1.0, 3.0
        g = default_grid(sigma, t)
        f = field_from_symbol(g, lambda z: np.exp(-(sigma * np.asarray(z)) ** 2 * t))
        d = inverse_transform(f)
        v = g.v()
        exact = np.exp(-(v**2) / (4 * sigma**2 * t)) / math.sqrt(4 * math.pi * sigma**2 * t)
        assert g.dv * np.sum(np.abs(d.density - exact)) <= 1e-8

    def test_non_hermitian_rejected(self):
        g = GridSpec(20.0, 64)
        vals = np.ones(64, dtype=complex)
        vals[40] = 2.0 + 1.0j
        with pytest.raises(SymmetryError):
            inverse_transform(SpectralField(grid=g, values=vals))

    @pytest.mark.parametrize("n", [16, 4096, 65536])
    def test_matches_the_full_length_oracle_bit_for_bit(self, n):
        g = GridSpec(10.0 + 0.01 * n, n)
        raised = []
        for vals, atoms in oracle_fields(g):
            assert bits(_hermitian_defect(vals)) == bits(hermitian_defect_oracle(vals))
            f = SpectralField(grid=g, values=vals)
            try:
                want = inverse_transform_oracle(f, atoms)
            except SymmetryError:
                raised.append(True)
                with pytest.raises(SymmetryError):
                    inverse_transform(f, atoms)
                continue
            raised.append(False)
            got = inverse_transform(f, atoms)
            assert np.array_equal(bits(got.density), bits(want)) and got.atoms == tuple(atoms)
            assert got.density.flags.c_contiguous and got.density.base is None
        assert any(raised) and not all(raised)

    @pytest.mark.parametrize("n", [16, 4096, 65536])
    def test_symmetry_threshold_is_the_oracles(self, n):
        # |v_k - conj(v_N-k)| = d off xi = 0 and 2 d at xi = 0, against a peak of exactly
        # 1: a defect of SYM_TOL passes, the next double above it raises
        g = GridSpec(20.0, n)
        for k, limit in ((1, SYM_TOL), (n // 4, SYM_TOL), (n // 2, SYM_TOL / 2)):
            for d in (limit, np.nextafter(limit, 1.0)):
                vals = np.ones(n, dtype=complex)
                vals[k] += 1j * d
                f = SpectralField(grid=g, values=vals)
                try:
                    inverse_transform_oracle(f)
                except SymmetryError:
                    assert d > limit
                    with pytest.raises(SymmetryError):
                        inverse_transform(f)
                else:
                    assert d == limit
                    inverse_transform(f)

    def test_positivity_of_regular_part(self, grid, gauss_unit, ros_kernel):
        for t in (0.5, 2.0):
            reg = inverse_transform(regularized_solution(gauss_unit, ros_kernel, t))
            floor = -1e-8 * np.max(reg.density)
            assert np.min(reg.density) >= floor


class TestDilate:
    def test_analytic_and_resampled_paths_agree(self):
        g = GridSpec(80.0, 2048)
        analytic = gaussian_field(g, 1.3)
        sampled = SpectralField(grid=g, values=analytic.values)  # drops the closure
        for factor in (0.35, 0.8, 1.0):
            a = dilate(analytic, factor)
            b = dilate(sampled, factor)
            assert np.max(np.abs(a.values - b.values)) <= 1e-9

    def test_mass_invariant(self, gauss_unit):
        assert dilate(gauss_unit, 0.25).mass == pytest.approx(gauss_unit.mass, abs=1e-12)

    def test_upsampling_rejected_without_closure(self):
        g = GridSpec(40.0, 256)
        sampled = SpectralField(grid=g, values=gaussian_field(g, 1.0).values)
        with pytest.raises(ResampleError):
            dilate(sampled, 1.5)


    def test_refinement_built_once_per_field(self, monkeypatch):
        # off-grid evaluation of a sampled field refines it to spacing dxi / BAND_REFINE
        # on the first call only; every later call reuses the same refined samples
        g = GridSpec(40.0, 256)
        sampled = SpectralField(grid=g, values=gaussian_field(g, 1.0).values)
        calls, fft = [], np.fft.fft

        def counted_fft(a, *args, **kwargs):
            calls.append(a.size)
            return fft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", counted_fft)
        first = [sampled.at(0.3 * g.xi()), dilate(sampled, 0.7).values]
        again = [sampled.at(0.3 * g.xi()), dilate(sampled, 0.7).values]
        assert calls == [BAND_REFINE * g.points]
        assert all(np.array_equal(a, b) for a, b in zip(first, again))
        # the refined samples: the density zero-padded to BAND_REFINE times its support
        m = BAND_REFINE * g.points
        padded = np.zeros(m, dtype=complex)
        lo = (m - g.points) // 2
        padded[lo:lo + g.points] = np.fft.ifftshift(np.fft.ifft(np.fft.fftshift(sampled.values)))
        assert np.array_equal(sampled._refined, np.fft.fftshift(fft(np.fft.ifftshift(padded))))

    def test_at_keeps_the_closure_dtype(self, grid):
        # a preset's closure is real; fields built from it still hold complex samples
        assert gaussian_field(grid, 1.0).at(grid.xi()).dtype == np.float64
        assert gaussian_field(grid, 1.0).values.dtype == np.complex128
        assert dilate(gaussian_field(grid, 1.0), 0.5).values.dtype == np.complex128


class TestGridMonitor:
    def test_leak_estimate_monotone(self):
        g = GridSpec(40.0, 256)
        assert mass_leak_estimate(g, 1.0) < mass_leak_estimate(g, 50.0)

    def test_require_grid_raises(self):
        g = GridSpec(20.0, 256)
        with pytest.raises(GridTooSmallError):
            require_grid_contains(g, variance=100.0)
        require_grid_contains(g, variance=0.5)  # comfortable fit


class TestSerialization:
    def test_roundtrip_exact(self, tmp_path):
        g = GridSpec(30.0, 64)
        rng = np.random.default_rng(7)
        d = MixedDistribution(grid=g, density=rng.random(64),
                              atoms=((0.0, 0.125), (-3.5, 0.25)))
        path = tmp_path / "dist.txt"
        save_distribution(d, str(path))
        back = load_distribution(str(path))
        assert back.grid == d.grid
        assert np.array_equal(back.density, d.density)
        assert back.atoms == d.atoms

    def test_atoms_only_allowed(self, tmp_path):
        g = GridSpec(30.0, 64)
        d = MixedDistribution(grid=g, density=np.zeros(64), atoms=((1.0, 1.0),))
        path = tmp_path / "atoms.txt"
        save_distribution(d, str(path))
        assert load_distribution(str(path)).total_mass == pytest.approx(1.0)

    def test_atoms_only_compact_form(self, tmp_path):
        from rosenau import bernoulli_kernel, cd_wild_solution

        # the N = 0 input form: header "L 0 n_atoms", then the atom pairs alone
        d = cd_wild_solution(bernoulli_kernel(0.5, 1.0), 0.8)
        path = tmp_path / "wild_atoms.txt"
        path.write_text(f"{d.grid.length!r} 0 {len(d.atoms)}\n"
                        + "".join(f"{loc!r} {w!r}\n" for loc, w in d.atoms))
        back = load_distribution(str(path))
        assert back.atoms == d.atoms
        assert back.total_mass == pytest.approx(d.total_mass, rel=1e-15)

    def test_atom_outside_domain_rejected(self):
        g = GridSpec(10.0, 64)
        with pytest.raises(InvalidParameterError):
            MixedDistribution(grid=g, density=np.zeros(64), atoms=((7.0, 1.0),))
