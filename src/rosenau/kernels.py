"""Background velocity distributions driving the kinetic approximation.

A background kernel is a probability distribution M_eps with zero mean and
variance eps^2 gamma^2.  The analytic Fourier symbol is the ground truth;
atoms and densities are auxiliary representations validated against it.
The associated generator symbol

    A_eps(xi) = lam * (1 - symbol(xi)) / eps^2

is the Fourier multiplier of the solution semigroup.  Kernels are frozen
dataclasses: immutable after construction and safe to share across threads.

Two presets are built in.  The "rosenau" family has a two-sided exponential
density with scale eps*sigma, symbol 1/(1+(eps*sigma*xi)^2) and intensity
lam = sigma^2.  The "central-diff" family is the balanced two-atom Bernoulli
background at +-eps*sigma with symbol cos(eps*sigma*xi) and lam = 2; it
reproduces the semi-discrete second-order central difference scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from .errors import (
    InvalidKernelError,
    InvalidParameterError,
    UnsupportedKernelError,
    UnsupportedMomentError,
)

Array = np.ndarray

ROSENAU = "rosenau"
CENTRAL_DIFF = "central-diff"
CUSTOM = "custom"

# Quadrature window for the exponential density, in units of the Laplace
# scale.  exp(-40) ~ 4e-18, negligible against the 1e-12 quadrature target.
_DENSITY_WINDOW = 40.0


@dataclass(frozen=True)
class BackgroundKernel:
    """Immutable background distribution M_eps.

    ``symbol`` evaluates the Fourier transform of M_eps.
    ``one_minus_symbol`` evaluates 1 - symbol(xi) in a cancellation-free
    form; the generator divides this by eps^2, so evaluating the naive
    difference would amplify roundoff by 1/eps^2 near xi = 0.
    """

    family: str
    epsilon: float
    lam: float
    gamma: float
    symbol: Callable[[Array], Array]
    one_minus_symbol: Callable[[Array], Array]
    atoms: Tuple[Tuple[float, float], ...] = ()
    density: Optional[Callable[[Array], Array]] = None
    density_halfwidth: float = 0.0
    max_moment: float = math.inf
    sigma: Optional[float] = None

    @property
    def sigma_sq(self) -> float:
        """Diffusion coefficient lam*gamma^2/2 of the limiting heat equation."""
        return 0.5 * self.lam * self.gamma**2

    @property
    def scale(self) -> float:
        """Characteristic velocity scale eps*gamma of the background."""
        return self.epsilon * self.gamma

    def label(self) -> str:
        return f"{self.family}(eps={self.epsilon:g})"

    def intensity(self, t: float) -> float:
        """Poisson jump intensity mu = lam t / eps^2 accumulated by time t."""
        return self.lam * t / self.epsilon**2


def _require_positive(**params: float) -> None:
    for name, value in params.items():
        if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
            raise InvalidParameterError(f"{name} must be a positive finite real, got {value!r}")


def rosenau_kernel(epsilon: float, sigma: float) -> BackgroundKernel:
    """Two-sided exponential background with scale eps*sigma and lam = sigma^2."""
    _require_positive(epsilon=epsilon, sigma=sigma)
    a = epsilon * sigma

    def symbol(xi):
        return 1.0 / (1.0 + (a * np.asarray(xi)) ** 2)

    def one_minus(xi):
        x2 = (a * np.asarray(xi)) ** 2
        return x2 / (1.0 + x2)

    def density(v):
        return np.exp(-np.abs(np.asarray(v)) / a) / (2.0 * a)

    kernel = BackgroundKernel(
        family=ROSENAU,
        epsilon=float(epsilon),
        lam=float(sigma) ** 2,
        gamma=math.sqrt(2.0) * float(sigma),
        symbol=symbol,
        one_minus_symbol=one_minus,
        density=density,
        density_halfwidth=_DENSITY_WINDOW * a,
        max_moment=math.inf,
        sigma=float(sigma),
    )
    validate_kernel(kernel)
    return kernel


def bernoulli_kernel(epsilon: float, sigma: float) -> BackgroundKernel:
    """Balanced Bernoulli background: atoms of mass 1/2 at -eps*sigma and +eps*sigma."""
    _require_positive(epsilon=epsilon, sigma=sigma)
    a = epsilon * sigma

    def symbol(xi):
        return np.cos(a * np.asarray(xi))

    def one_minus(xi):
        # 1 - cos(x) = 2 sin^2(x/2), exact near x = 0
        return 2.0 * np.sin(0.5 * a * np.asarray(xi)) ** 2

    kernel = BackgroundKernel(
        family=CENTRAL_DIFF,
        epsilon=float(epsilon),
        lam=2.0,
        gamma=float(sigma),
        symbol=symbol,
        one_minus_symbol=one_minus,
        atoms=((-a, 0.5), (a, 0.5)),
        max_moment=math.inf,
        sigma=float(sigma),
    )
    validate_kernel(kernel)
    return kernel


def tabulated_kernel(path: str, epsilon: float, lam: float) -> BackgroundKernel:
    """Kernel from a two-column text file of (xi, symbol) samples.

    The symbol is interpolated with a cubic spline.  Unit mass and zero
    first moment are enforced at construction; gamma is derived from the
    curvature of the tabulated symbol at the origin.  Only moments up to
    order two are certified, so ``max_moment`` is 2.  The 1 - symbol form
    is the naive difference here, so tabulated kernels inherit the table's
    accuracy near the origin rather than the analytic presets' stability.
    """
    _require_positive(epsilon=epsilon, lam=lam)
    table = np.loadtxt(path, ndmin=2)
    if table.shape[1] < 2:
        raise InvalidKernelError(f"{path}: expected two columns (xi, symbol)")
    xi_tab = table[:, 0]
    m_tab = table[:, 1]
    order = np.argsort(xi_tab)
    xi_tab, m_tab = xi_tab[order], m_tab[order]
    if np.any(np.diff(xi_tab) <= 0):
        raise InvalidKernelError(f"{path}: xi samples must be strictly increasing")
    spline = CubicSpline(xi_tab, m_tab)
    lo, hi = float(xi_tab[0]), float(xi_tab[-1])

    def symbol(xi):
        x = np.asarray(xi, dtype=float)
        if np.any(x < lo) or np.any(x > hi):
            raise InvalidParameterError(
                f"tabulated symbol sampled on [{lo:g}, {hi:g}], requested outside"
            )
        return spline(x)

    def one_minus(xi):
        return 1.0 - symbol(xi)

    m2 = float(-spline.derivative(2)(0.0))
    if m2 <= 0:
        raise InvalidKernelError(f"{path}: symbol curvature at 0 gives nonpositive variance")
    # refine with the same stencil the validator uses, so the derived gamma
    # and the validation curvature agree to roundoff
    for _ in range(2):
        m2 = -_fd_curvature(symbol, math.sqrt(m2)).real
    kernel = BackgroundKernel(
        family=CUSTOM,
        epsilon=float(epsilon),
        lam=float(lam),
        gamma=math.sqrt(m2) / float(epsilon),
        symbol=symbol,
        one_minus_symbol=one_minus,
        max_moment=2,
    )
    validate_kernel(kernel)
    return kernel


def kernel_by_name(name: str, epsilon: float, sigma: float = 1.0, lam: float = None) -> BackgroundKernel:
    """Resolve the external name strings "rosenau", "central-diff", "custom:<path>"."""
    if name == ROSENAU:
        return rosenau_kernel(epsilon, sigma)
    if name == CENTRAL_DIFF:
        return bernoulli_kernel(epsilon, sigma)
    if name.startswith("custom:"):
        return tabulated_kernel(name.split(":", 1)[1], epsilon, lam if lam is not None else 2.0)
    raise InvalidParameterError(f"unknown kernel family {name!r}")


def _fd_slope(symbol, scale: float) -> complex:
    """Fourth-order first derivative of the symbol at 0; equals -i * mean."""
    h = 0.005 / max(scale, 1e-300)
    pts = np.array([-2.0, -1.0, 1.0, 2.0]) * h
    vals = np.asarray(symbol(pts), dtype=complex)
    return (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * h)


def _fd_curvature(symbol, scale: float) -> complex:
    """Fourth-order second derivative of the symbol at 0; equals -m2."""
    h = 0.005 / max(scale, 1e-300)
    pts = np.array([-2.0, -1.0, 1.0, 2.0]) * h
    vals = np.asarray(symbol(pts), dtype=complex)
    s0 = complex(np.asarray(symbol(0.0), dtype=complex))
    return (-vals[0] + 16.0 * vals[1] - 30.0 * s0 + 16.0 * vals[2] - vals[3]) / (12.0 * h * h)


def validate_kernel(kernel: BackgroundKernel, mass_tol: float = 1e-12,
                    mean_tol: float = 1e-10, var_rtol: float = 1e-8) -> None:
    """Enforce the normalization conditions: unit mass, zero mean, variance eps^2 gamma^2.

    Mean and variance are read off finite-difference derivatives of the
    symbol at the origin (fourth-order stencils; the step is tied to the
    kernel scale so truncation stays below the stated tolerances).
    If both atoms and a density are present their masses must sum to one.
    """
    s0 = complex(np.asarray(kernel.symbol(0.0), dtype=complex))
    if abs(s0 - 1.0) > mass_tol:
        raise InvalidKernelError(f"symbol(0) = {s0}, expected 1 (unit mass)")

    mean = abs(_fd_slope(kernel.symbol, kernel.scale))
    if mean > mean_tol * max(1.0, kernel.scale):
        raise InvalidKernelError(f"first moment {mean:.3e} exceeds tolerance")
    m2 = -_fd_curvature(kernel.symbol, kernel.scale).real
    target = (kernel.epsilon * kernel.gamma) ** 2
    if abs(m2 - target) > var_rtol * target:
        raise InvalidKernelError(
            f"second moment from curvature {m2:.12e} != eps^2 gamma^2 = {target:.12e}"
        )
    if kernel.atoms and kernel.density is not None:
        atom_mass = sum(w for _, w in kernel.atoms)
        dens_mass = _density_moment(kernel, 0, signed=False)
        if abs(atom_mass + dens_mass - 1.0) > 1e-10:
            raise InvalidKernelError("atom and density masses do not sum to 1")


def generator_symbol(kernel: BackgroundKernel, xi) -> Array:
    """Semigroup multiplier A_eps(xi) = lam (1 - symbol(xi)) / eps^2."""
    return kernel.lam * np.asarray(kernel.one_minus_symbol(xi)) / kernel.epsilon**2


def _density_moment(kernel: BackgroundKernel, k: int, signed: bool) -> float:
    if kernel.density is None:
        return 0.0
    half = kernel.density_halfwidth

    def f(v):
        w = v**k if signed else abs(v) ** k
        return w * float(kernel.density(v))

    # split at 0: the built-in density has a kink there
    left, _ = quad(f, -half, 0.0, epsabs=1e-12, epsrel=1e-12, limit=200)
    right, _ = quad(f, 0.0, half, epsabs=1e-12, epsrel=1e-12, limit=200)
    return left + right


def kernel_moment(kernel: BackgroundKernel, k: int, signed: bool = False,
                  method: str = "quadrature") -> float:
    """k-th moment of M_eps: sum over atoms plus quadrature of the density part.

    ``signed`` integrates v^k instead of |v|^k (they agree for the symmetric
    built-in families at even k; signed odd moments vanish).  ``method``
    may be "closed" for the presets, where |v|-moments are k! (eps sigma)^k
    for the exponential density and (eps sigma)^k for the Bernoulli atoms.
    """
    if k < 0 or int(k) != k:
        raise InvalidParameterError(f"moment order must be a nonnegative integer, got {k}")
    k = int(k)
    if k > kernel.max_moment:
        raise UnsupportedMomentError(
            f"moment {k} not available: kernel certifies orders <= {kernel.max_moment}"
        )
    if method == "closed":
        return _closed_moment(kernel, k, signed)
    if method != "quadrature":
        raise InvalidParameterError(f"unknown moment method {method!r}")
    total = sum(w * ((v**k) if signed else abs(v) ** k) for v, w in kernel.atoms)
    return total + _density_moment(kernel, k, signed)


def _closed_moment(kernel: BackgroundKernel, k: int, signed: bool) -> float:
    a = kernel.epsilon * (kernel.sigma if kernel.sigma is not None else kernel.gamma)
    if kernel.family == ROSENAU:
        if signed and k % 2 == 1:
            return 0.0
        return math.factorial(k) * a**k
    if kernel.family == CENTRAL_DIFF:
        if signed and k % 2 == 1:
            return 0.0
        return a**k
    raise UnsupportedKernelError("closed-form moments exist only for the built-in families")


def b_epsilon(kernel: BackgroundKernel) -> float:
    """Scaled fourth moment 2 m4 / eps^2 controlling the d3 convergence rate.

    Uses the signed fourth moment, identical to the absolute one here since
    both built-in families are symmetric.
    """
    m4 = kernel_moment(kernel, 4, signed=True)
    return 2.0 * m4 / kernel.epsilon**2


def symbol_deviation(kernel: BackgroundKernel, sigma_sq: float, R: float,
                     num: int = 8193) -> float:
    """sup over a dense grid of |xi| <= R of |A_eps(xi) - sigma_sq xi^2|.

    Measures how far the generator is from the heat multiplier; for the
    symmetric built-ins the deviation is O(eps^2) at fixed R.
    """
    if R <= 0:
        raise InvalidParameterError("R must be positive")
    xi = np.linspace(-R, R, num)
    dev = np.abs(generator_symbol(kernel, xi) - sigma_sq * xi**2)
    return float(np.max(dev))
