import math

import numpy as np
import pytest

from rosenau import (
    GridSpec,
    bernoulli_kernel,
    gaussian_field,
    rosenau_kernel,
)


@pytest.fixture(scope="session")
def grid():
    """Workhorse grid: wide enough for t up to ~10 at unit diffusivity."""
    return GridSpec(length=160.0, points=4096)


@pytest.fixture(scope="session")
def wide_grid():
    """Grid for long-time runs (t up to ~200)."""
    return GridSpec(length=600.0, points=8192)


@pytest.fixture(scope="session")
def ros_kernel():
    return rosenau_kernel(0.3, 1.0)


@pytest.fixture(scope="session")
def cd_kernel():
    return bernoulli_kernel(0.3, 1.0)


@pytest.fixture(scope="session")
def gauss_unit(grid):
    """Gaussian datum with unit second moment on the workhorse grid."""
    return gaussian_field(grid, 1.0)


def write_atoms(path, rows):
    """Unit-scale (location, weight) rows in the custom: kernel file format."""
    np.savetxt(path, np.asarray(rows, dtype=float))
    return str(path)


def binomial_atoms(kernel, n):
    """Independent oracle of the central-difference family: the atoms of the n-fold
    convolution power of +-eps sigma at 1/2 each, weight 2^-n binom(n, j) at
    (-n + 2j) eps sigma, summing to one."""
    a = kernel.epsilon * kernel.sigma
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    weights = np.exp(log_fact[n] - log_fact - log_fact[::-1] - n * math.log(2.0))
    locs = (-n + 2.0 * np.arange(n + 1, dtype=float)) * a
    return tuple((float(l), float(w)) for l, w in zip(locs, weights))


def simpson_moment(density_fn, k, half, n=400_001, signed=False):
    """Independent moment oracle: Simpson rule on a dense symmetric grid."""
    from scipy.integrate import simpson

    v = np.linspace(-half, half, n)
    w = v**k if signed else np.abs(v) ** k
    return float(simpson(w * density_fn(v), x=v))


# the preset data as two-Gaussian mixtures (N(-a, s^2) + N(a, s^2))/2, transform
# cos(a xi) exp(-s^2 xi^2 / 2), by (a, s^2); both have m2 = a^2 + s^2 = 1, and the
# unit mixture has m4 = 2, i.e. a^2 = 2^-1/2
ORACLE_DATA = {"gaussian-unit": (0.0, 1.0), "mixture-unit": ((2.0**-0.5) ** 0.5, 1.0 - 2.0**-0.5)}


def _generator_oracle(family, eps, xi, sigma=1.0):
    """(A_eps(xi), D xi^2): the kinetic exponent rate and its heat limit, in closed form.

    The backgrounds have scale a_eps = eps sigma:

    - central-diff: atoms at +-a_eps, lam = 2, 1 - Mhat = 2 sin^2(a_eps xi / 2);
    - rosenau: density exp(-|v|/a_eps)/(2 a_eps), lam = sigma^2,
      1 - Mhat = (a_eps xi)^2 / (1 + (a_eps xi)^2);

    A_eps = lam (1 - Mhat) / eps^2, and D = lam Var(M_eps) / (2 eps^2) is the
    limiting diffusivity.
    """
    a_eps = eps * sigma
    if family == "central-diff":
        lam, var = 2.0, a_eps**2
        one_minus = 2.0 * np.sin(0.5 * a_eps * xi) ** 2
    elif family == "rosenau":
        lam, var = sigma**2, 2.0 * a_eps**2
        one_minus = (a_eps * xi) ** 2 / (1.0 + (a_eps * xi) ** 2)
    else:
        raise ValueError(f"unknown family {family!r}")
    return lam * one_minus / eps**2, 0.5 * lam * var / eps**2 * xi**2


def selfsim_gap_oracle(family, eps, t, sigma=1.0, initial="mixture-unit"):
    """Independent oracle for d2(h_eps(t), h(t)) from a preset datum, by default the
    unit two-Gaussian mixture.

    Both rescaled solutions are dilations by V = (1+t)^-1/2 of the same
    datum, so the distance is

        (1+t)^-1 sup_xi |g0hat(xi)| |exp(-A_eps(xi) t) - exp(-D xi^2 t)| / xi^2,

    taken here on a dense xi grid from closed forms alone (``ORACLE_DATA``,
    ``_generator_oracle``).  The Gaussian factor of g0hat makes xi = 20 a
    cutoff below 1e-25; the grid step 1e-4 resolves the peak, near
    xi ~ t^-1/2, to ~1e-6 relative at t = 100.
    """
    xi = np.linspace(0.0, 20.0, 200_001)[1:]
    kinetic, heat = _generator_oracle(family, eps, xi, sigma)
    # |exp(-x) - exp(-y)| = exp(-min(x, y)) (1 - exp(-|x - y|)), free of
    # the cancellation near xi = 0 where both exponentials are close to 1
    gap = np.exp(-np.minimum(kinetic, heat) * t) * -np.expm1(-np.abs(heat - kinetic) * t)
    a, s_sq = ORACLE_DATA[initial]
    g0hat = np.cos(a * xi) * np.exp(-0.5 * s_sq * xi**2)
    return float(np.max(np.abs(g0hat) * gap / xi**2)) / (1.0 + t)


def selfsim_profile_oracle(initial, family, eps, t, heat=False, sigma=1.0):
    """Independent oracle for d2 of the rescaled kinetic solution (the heat solution
    with ``heat``) from a preset datum to the profile exp(-sigma^2 xi^2).

    At z = V xi, V = (1+t)^-1/2, the rescaled transform is cos(a z) exp(-x) with
    x = s^2 z^2 / 2 + A_eps(z) t (D z^2 t for the heat flow), and its difference
    to exp(-y), y = sigma^2 xi^2, is exp(-x) (-2 sin^2(a z / 2) - expm1(x - y)):
    two terms free of cancellation near xi = 0, where the sup of these data sits
    (the limit |m2(t) V^2 - 2 sigma^2| / 2).  The scan is log-spaced on
    [1e-6, 1] and uniform with step 2e-4 on [1, 40]; beyond 40 the ratio is
    below 2 / 40^2.
    """
    xi = np.concatenate((np.geomspace(1e-6, 1.0, 20_000, endpoint=False),
                         np.linspace(1.0, 40.0, 195_001)))
    z = xi / math.sqrt(1.0 + t)
    kinetic, diffusive = _generator_oracle(family, eps, z, sigma)
    a, s_sq = ORACLE_DATA[initial]
    x = 0.5 * s_sq * z**2 + (diffusive if heat else kinetic) * t
    delta = np.exp(-x) * np.abs(2.0 * np.sin(0.5 * a * z) ** 2 + np.expm1(x - sigma**2 * xi**2))
    return float(np.max(delta / xi**2))


def l1_heat_gap_oracle(t, sigma=1.0):
    """||N(0, s1^2) - N(0, s2^2)||_L1, the heat flow of gaussian-unit against the heat
    kernel: s1^2 = 1 + 2 sigma^2 t, s2^2 = 2 sigma^2 t.  The densities cross at
    +-x*, x*^2 = 2 ln(s1/s2) s1^2 s2^2 / (s1^2 - s2^2), and the narrower one is
    above inside, so the distance is 2 (erf(x*/(sqrt2 s2)) - erf(x*/(sqrt2 s1)))."""
    s1_sq, s2_sq = 1.0 + 2.0 * sigma**2 * t, 2.0 * sigma**2 * t
    x = math.sqrt(math.log(s1_sq / s2_sq) * s1_sq * s2_sq / (s1_sq - s2_sq))
    return 2.0 * (math.erf(x / math.sqrt(2.0 * s2_sq)) - math.erf(x / math.sqrt(2.0 * s1_sq)))


# c sigma_d^2 / 2 of the d2 bound's constant, c = 3 (central-diff) and 1 (rosenau)
D2_HALF_C = {"central-diff": 1.5, "rosenau": 0.5}


def check_rhs_oracle(check, family, params, d0):
    """The rhs of a heat_decay or d2_bound record, recomputed from its formula."""
    t = params["t"]
    if check == "heat-decay":
        return d0 / (1.0 + t)
    if check == "d2-bound":
        c = math.sqrt(D2_HALF_C[family] * params["sigma"] ** 2)
        return d0 / (1.0 + t) + c * params["eps"] * math.sqrt(t) / (1.0 + t)
    raise ValueError(f"no rhs oracle for {check!r}")


def full_grid_ds_distance(f1, f2, s):
    """d_s over every node of the grid, both signs of xi: a copy of the N-point
    ``ds_distance`` that the half-line one replaced, kept as its oracle."""
    from rosenau.metrics import SMALL_XI_BINS, MetricReport, _small_xi_part

    grid = f1.grid
    absxi = np.abs(grid.xi())
    cutoff = SMALL_XI_BINS * grid.dxi
    outer = absxi >= cutoff
    inner = (absxi > 0.5 * grid.dxi) & (absxi < cutoff)
    delta = np.abs(f1.values - f2.values)
    scale = max(1.0, float(np.max(np.abs(f1.values))), float(np.max(np.abs(f2.values))))
    ratio = delta[outer] / absxi[outer] ** s
    k = int(np.argmax(ratio))
    grid_sup = float(ratio[k])
    limit = _small_xi_part(absxi[inner], delta[inner], s, scale)
    value, argsup = (limit, 0.0) if limit > grid_sup else (grid_sup, float(absxi[outer][k]))
    return MetricReport(value, argsup)


def hermitian_defect_oracle(values):
    """max |v_k - conj(v_N-k)| over k = 1 .. N-1, each pair compared twice: the
    full-length ``_hermitian_defect`` that the half-length one replaced."""
    flipped = np.conj(values[1:][::-1])
    return float(np.max(np.abs(values[1:] - flipped)))


def inverse_transform_oracle(f, atoms=()):
    """Density of ``inverse_transform`` by fftshift, ifft, ifftshift and / dv, each
    into a fresh array: the body that the one-work-array inverse replaced."""
    from rosenau.errors import SymmetryError
    from rosenau.spectral import SYM_TOL

    grid = f.grid
    vals = f.values
    if atoms:
        xi = grid.dxi * (np.arange(grid.points) - grid.points // 2)
        for loc, w in atoms:
            vals = vals - w * np.exp(-1j * xi * loc)
    scale = max(float(np.max(np.abs(vals))), 1e-300)
    defect = hermitian_defect_oracle(vals)
    if defect > SYM_TOL * scale:
        raise SymmetryError(f"defect {defect:.3e}, scale {scale:.3e}")
    dens = np.fft.ifftshift(np.fft.ifft(np.fft.fftshift(vals))) / grid.dv
    return dens.real


def multiply_oracle(f, mult_fn):
    """Values of ``spectral._multiply(f, mult_fn)`` with the multiplier evaluated on every
    grid node: the full-evaluation body that live-span multiplication replaced."""
    return f.values * np.asarray(mult_fn(f.grid.xi()))


def rescaled_oracle(point, mult):
    """Values of ``SweepPoint.rescaled(mult)`` with the multiplier evaluated on the whole
    half line: the full-evaluation body that live-span multiplication replaced."""
    return point.datum * np.asarray(mult(point.z))
