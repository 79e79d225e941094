"""Background velocity distributions driving the kinetic approximation.

A background kernel is a probability distribution M_eps with zero mean and
variance 2 eps^2 sigma^2 / lam.  Its generator symbol

    A_eps(xi) = lam * (1 - symbol(xi)) / eps^2

is the Fourier multiplier of the solution semigroup, and sigma^2 is the
diffusivity of the limiting heat equation at every eps.  Kernels are frozen
dataclasses: immutable after construction and safe to share across threads.

There are two representations, each with closed-form moments.

- The "rosenau" family is a two-sided exponential density with scale
  eps*sigma, symbol 1/(1+(eps*sigma*xi)^2) and lam = 1: its generator
  sigma^2 xi^2/(1+(eps*sigma*xi)^2) is Rosenau's, of diffusivity sigma^2.
- Every other kernel is a finite mirror-symmetric set of atoms (v, w) given
  at unit scale and placed at eps*sigma*v.  With m2 = sum w v^2 over the unit
  atoms, lam = 2/m2, so the variance eps^2 sigma^2 m2 makes the limiting
  diffusivity sigma^2 at every eps.  The symbol is sum w cos(v xi) and 1 - symbol is
  2 sum w sin^2(v xi / 2), each +-v pair folded into one real term, so the
  generator suffers no cancellation near xi = 0.  "central-diff" is the
  two-atom instance +-1 at weight 1/2 (lam = 2), which reproduces the
  semi-discrete second-order central difference scheme; "custom:<path>"
  reads the unit-scale atoms from a two-column text file.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import InvalidKernelError, InvalidParameterError

Array = np.ndarray

ROSENAU = "rosenau"
CENTRAL_DIFF = "central-diff"
CUSTOM = "custom"


@dataclass(frozen=True)
class BackgroundKernel:
    """Immutable background distribution M_eps.

    ``symbol`` evaluates the Fourier transform of M_eps.
    ``one_minus_symbol`` evaluates 1 - symbol(xi) in a cancellation-free
    form; the generator divides this by eps^2, so evaluating the naive
    difference would amplify roundoff by 1/eps^2 near xi = 0.
    ``atoms`` holds the (location, weight) pairs of an atomic kernel;
    ``density`` the density of the exponential one.
    """

    family: str
    epsilon: float
    sigma: float
    lam: float
    symbol: Callable[[Array], Array]
    one_minus_symbol: Callable[[Array], Array]
    atoms: Tuple[Tuple[float, float], ...] = ()
    density: Optional[Callable[[Array], Array]] = None

    @property
    def sigma_sq(self) -> float:
        """Diffusion coefficient sigma^2 of the limiting heat equation."""
        return self.sigma**2

    def label(self) -> str:
        return f"{self.family}(eps={self.epsilon:g})"

    def generator_defined(self, reach: float) -> bool:
        """True when ``generator_symbol`` is a number, never NaN, at every |xi| <= reach.  It is
        NaN where the exponential family's (eps sigma xi)^2 overflows (inf / inf), where an
        atom's location times xi overflows (the sine of inf), and at 1 - symbol = 0 when lam
        overflows (inf * 0).  A kernel of neither family is not certified."""
        if self.atoms:
            peak = max(abs(loc) for loc, _ in self.atoms)
            return math.isfinite(self.lam) and peak * reach < math.inf
        if self.family == ROSENAU:
            a_reach = self.epsilon * self.sigma * reach
            return a_reach * a_reach < math.inf
        return False

    def intensity(self, t: float) -> float:
        """Poisson jump intensity mu = lam t / eps^2 accumulated by time t."""
        return self.lam * t / self.epsilon**2


def _require_positive(**params: float) -> None:
    """Each value is a positive real whose square is a finite, normal double."""
    for name, value in params.items():
        if not (isinstance(value, (int, float)) and value > 0
                and sys.float_info.min <= float(value) * float(value) < math.inf):
            raise InvalidParameterError(
                f"{name} must be a positive real with a finite, normal square, got {value!r}")


def rosenau_kernel(epsilon: float, sigma: float) -> BackgroundKernel:
    """Two-sided exponential background with scale eps*sigma and lam = 1."""
    _require_positive(epsilon=epsilon, sigma=sigma)
    a = epsilon * sigma

    def symbol(xi):
        return 1.0 / (1.0 + (a * np.asarray(xi)) ** 2)

    def one_minus(xi):
        x2 = (a * np.asarray(xi)) ** 2
        return x2 / (1.0 + x2)

    def density(v):
        return np.exp(-np.abs(np.asarray(v)) / a) / (2.0 * a)

    return BackgroundKernel(
        family=ROSENAU,
        epsilon=float(epsilon),
        sigma=float(sigma),
        lam=1.0,
        symbol=symbol,
        one_minus_symbol=one_minus,
        density=density,
    )


def _pair_sum(fn, locations, coefs, x):
    """sum_j coefs[j] * fn(locations[j] * x); the first term is the accumulator."""
    terms = (c * fn(v * x) for v, c in zip(locations, coefs))
    total = next(terms)
    for term in terms:
        total += term
    return total


def atomic_kernel(atoms, epsilon: float, sigma: float, family: str = CUSTOM) -> BackgroundKernel:
    """Kernel of mirror-symmetric (location, weight) atoms given at unit scale.

    The atoms are placed at eps*sigma*location.  The input is checked
    exactly: finite values, positive weights, total weight 1 within
    1e-12, distinct locations, every atom (v, w) matched by (-v, w), and
    a positive, finite second moment.
    """
    _require_positive(epsilon=epsilon, sigma=sigma)
    table = np.asarray(atoms, dtype=float)
    if table.ndim != 2 or table.shape[1] != 2 or len(table) == 0:
        raise InvalidKernelError(f"expected rows of (location, weight), got shape {table.shape}")
    if not np.all(np.isfinite(table)):
        raise InvalidKernelError("atom locations and weights must be finite")
    v, w = table[np.argsort(table[:, 0], kind="stable")].T
    if not np.all(w > 0):
        raise InvalidKernelError(f"atom weights must be positive, got {float(w.min())!r}")
    mass = math.fsum(w)
    if abs(mass - 1.0) > 1e-12:
        raise InvalidKernelError(f"atom weights sum to {mass!r}, expected 1 (unit mass)")
    if np.any(np.diff(v) == 0):
        raise InvalidKernelError("atom locations must be distinct")
    if not (np.array_equal(v, -v[::-1]) and np.array_equal(w, w[::-1])):
        raise InvalidKernelError("atoms must be mirror-symmetric: each (v, w) needs (-v, w)")
    m2 = math.fsum(wi * vi * vi for vi, wi in zip(v.tolist(), w.tolist()))
    if not 0.0 < m2 < math.inf:
        raise InvalidKernelError(f"second moment sum w v^2 = {m2!r} must be positive and finite")

    a = float(epsilon) * float(sigma)
    pos = v > 0
    locs, half_locs = a * v[pos], 0.5 * (a * v[pos])
    # a +-v pair of weight w each contributes 2w cos(v xi) and 4w sin^2(v xi/2)
    cos_coefs, sin2_coefs = 2.0 * w[pos], 4.0 * w[pos]
    center = math.fsum(w[v == 0])

    def symbol(xi):
        total = _pair_sum(np.cos, locs, cos_coefs, np.asarray(xi))
        return total + center if center else total

    def one_minus(xi):
        return _pair_sum(lambda z: np.sin(z) ** 2, half_locs, sin2_coefs, np.asarray(xi))

    return BackgroundKernel(
        family=family,
        epsilon=float(epsilon),
        sigma=float(sigma),
        lam=2.0 / m2,
        symbol=symbol,
        one_minus_symbol=one_minus,
        atoms=tuple(zip((a * v).tolist(), w.tolist())),
    )


def bernoulli_kernel(epsilon: float, sigma: float) -> BackgroundKernel:
    """Balanced Bernoulli background: atoms of mass 1/2 at -eps*sigma and +eps*sigma."""
    return atomic_kernel(((-1.0, 0.5), (1.0, 0.5)), epsilon, sigma, family=CENTRAL_DIFF)


def tabulated_kernel(path: str, epsilon: float, sigma: float) -> BackgroundKernel:
    """Atomic kernel from a text file of unit-scale (location, weight) rows."""
    return atomic_kernel(np.loadtxt(path, ndmin=2), epsilon, sigma)


def kernel_by_name(name: str, epsilon: float, sigma: float) -> BackgroundKernel:
    """Resolve the external name strings "rosenau", "central-diff", "custom:<path>"."""
    if name == ROSENAU:
        return rosenau_kernel(epsilon, sigma)
    if name == CENTRAL_DIFF:
        return bernoulli_kernel(epsilon, sigma)
    if name.startswith("custom:"):
        return tabulated_kernel(name.split(":", 1)[1], epsilon, sigma)
    raise InvalidParameterError(f"unknown kernel family {name!r}")


def generator_symbol(kernel: BackgroundKernel, xi) -> Array:
    """Semigroup multiplier A_eps(xi) = lam (1 - symbol(xi)) / eps^2."""
    return kernel.lam * np.asarray(kernel.one_minus_symbol(xi)) / kernel.epsilon**2


def kernel_moment(kernel: BackgroundKernel, k: int) -> float:
    """k-th absolute moment of M_eps, of |v|^k, in closed form.

    Atoms give sum w |v|^k; the exponential density gives k! (eps sigma)^k.
    At even k it is the moment of v^k.
    """
    if k < 0 or int(k) != k:
        raise InvalidParameterError(f"moment order must be a nonnegative integer, got {k}")
    k = int(k)
    try:
        m = (math.fsum(w * abs(v) ** k for v, w in kernel.atoms) if kernel.atoms
             else math.factorial(k) * (kernel.epsilon * kernel.sigma) ** k)
    except OverflowError:
        m = math.inf
    if not math.isfinite(m):
        raise InvalidParameterError(f"moment {k} of {kernel.label()} overflows a double")
    return m


def b_epsilon(kernel: BackgroundKernel) -> float:
    """Scaled fourth moment 2 m4 / eps^2 controlling the d3 convergence rate."""
    return 2.0 * kernel_moment(kernel, 4) / kernel.epsilon**2
