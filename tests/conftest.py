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


def simpson_moment(density_fn, k, half, n=400_001, signed=False):
    """Independent moment oracle: Simpson rule on a dense symmetric grid."""
    from scipy.integrate import simpson

    v = np.linspace(-half, half, n)
    w = v**k if signed else np.abs(v) ** k
    return float(simpson(w * density_fn(v), x=v))


def selfsim_gap_oracle(family, eps, t, sigma=1.0):
    """Independent oracle for d2(h_eps(t), h(t)) from the unit two-Gaussian mixture.

    Both rescaled solutions are dilations by V = (1+t)^-1/2 of the same
    datum, so the distance is

        (1+t)^-1 sup_xi |g0hat(xi)| |exp(-A_eps(xi) t) - exp(-D xi^2 t)| / xi^2,

    taken here on a dense xi grid from closed forms alone.  The datum is
    (N(-a, s^2) + N(a, s^2))/2 with m2 = 1, m4 = 2, i.e. a^2 = 2^-1/2 and
    s^2 = 1 - 2^-1/2, whose transform is cos(a xi) exp(-s^2 xi^2 / 2).  The
    backgrounds have scale a_eps = eps sigma:

    - central-diff: atoms at +-a_eps, lam = 2, 1 - Mhat = 2 sin^2(a_eps xi / 2);
    - rosenau: density exp(-|v|/a_eps)/(2 a_eps), lam = sigma^2,
      1 - Mhat = (a_eps xi)^2 / (1 + (a_eps xi)^2);

    and D = lam Var(M_eps) / (2 eps^2) is the limiting diffusivity.  The
    Gaussian factor of g0hat makes xi = 20 a cutoff below 1e-25; the grid
    step 1e-4 resolves the peak, near xi ~ t^-1/2, to ~1e-6 relative at t = 100.
    """
    xi = np.linspace(0.0, 20.0, 200_001)[1:]
    a_eps = eps * sigma
    if family == "central-diff":
        lam, var = 2.0, a_eps**2
        one_minus = 2.0 * np.sin(0.5 * a_eps * xi) ** 2
    elif family == "rosenau":
        lam, var = sigma**2, 2.0 * a_eps**2
        one_minus = (a_eps * xi) ** 2 / (1.0 + (a_eps * xi) ** 2)
    else:
        raise ValueError(f"unknown family {family!r}")
    kinetic = lam * one_minus / eps**2
    heat = 0.5 * lam * var / eps**2 * xi**2
    # |exp(-x) - exp(-y)| = exp(-min(x, y)) (1 - exp(-|x - y|)), free of
    # the cancellation near xi = 0 where both exponentials are close to 1
    gap = np.exp(-np.minimum(kinetic, heat) * t) * -np.expm1(-np.abs(heat - kinetic) * t)
    a_sq = 2.0**-0.5
    g0hat = np.cos(a_sq**0.5 * xi) * np.exp(-0.5 * (1.0 - a_sq) * xi**2)
    return float(np.max(np.abs(g0hat) * gap / xi**2)) / (1.0 + t)
