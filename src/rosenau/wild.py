"""Wild sum representation of the kinetic solution with certified truncation.

The solution is the Poisson mixture

    g(t) = exp(-mu) * sum_n (mu^n / n!) M^(*n) * g0,     mu = lam t / eps^2,

so truncating after N terms discards exactly the Poisson tail mass beyond N.
Weights are evaluated in log space (mu can exceed 1e4 at small eps) and the
polynomial in Mhat is summed by Horner's rule.  For the central-difference
family the mixture has the closed form exp(-mu) I_|m|(mu) at lattice site m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.special import gammainc, gammaln, ive, xlogy

from .errors import InvalidParameterError, UnsupportedKernelError
from .kernels import CENTRAL_DIFF, BackgroundKernel
from .spectral import GridSpec, MixedDistribution, SpectralField, rosenau_propagate

# beyond this Poisson intensity direct summation is cross-checked no further;
# the spectral propagator takes over
DELEGATION_MU = 5000.0


def poisson_tail(mu: float, n: int) -> float:
    """P(X > n) for X ~ Poisson(mu), via the regularized incomplete gamma."""
    if mu < 0:
        raise InvalidParameterError("mu must be nonnegative")
    if mu == 0.0:
        return 0.0
    return float(gammainc(n + 1, mu))


@dataclass(frozen=True)
class WildTruncation:
    """Truncation certificate: N kept terms, intensity mu, discarded tail mass."""

    terms: int
    mu: float

    @property
    def tail_mass(self) -> float:
        return poisson_tail(self.mu, self.terms)


def truncation_order(mu: float, tol: float) -> int:
    """Smallest N whose Poisson tail beyond N is at most tol.

    Monotone bisection on the regularized incomplete gamma; the returned N
    satisfies tail(N) <= tol < tail(N-1).
    """
    if mu < 0:
        raise InvalidParameterError("mu must be nonnegative")
    if not (0.0 < tol < 1.0):
        raise InvalidParameterError("tol must lie in (0, 1)")
    if mu == 0.0:
        return 0
    hi = 8
    while poisson_tail(mu, hi) > tol:
        hi *= 2
        if hi > 10**9:
            raise InvalidParameterError("truncation order exceeds 1e9; check mu and tol")
    lo = 0
    while lo < hi:
        mid = (lo + hi) // 2
        if poisson_tail(mu, mid) <= tol:
            hi = mid
        else:
            lo = mid + 1
    return lo


def wild_partial_sum(g0: SpectralField, kernel: BackgroundKernel, t: float,
                     n_terms: int) -> SpectralField:
    """Partial sum exp(-mu) sum_{n<=N} (mu^n/n!) Mhat^n g0hat.

    Total transmitted mass is the Poisson cdf at N, so partial sums increase
    monotonically toward the full solution.
    """
    if t < 0:
        raise InvalidParameterError("time must be nonnegative")
    if n_terms < 0:
        raise InvalidParameterError("term count must be nonnegative")
    mu = kernel.intensity(t)
    mhat = np.asarray(kernel.symbol(g0.grid.xi()), dtype=complex)
    n = np.arange(n_terms + 1, dtype=float)
    weights = np.exp(-mu + xlogy(n, mu) - gammaln(n + 1.0))
    acc = np.full_like(g0.values, weights[-1])
    for w in weights[-2::-1]:
        acc *= mhat
        acc += w
    return SpectralField(grid=g0.grid, values=acc * g0.values)


@dataclass(frozen=True)
class WildResult:
    field: SpectralField
    truncation: WildTruncation
    delegated: bool


def wild_solution(g0: SpectralField, kernel: BackgroundKernel, t: float,
                  tol: float = 1e-12) -> WildResult:
    """Wild sum truncated at the certified order, delegating at extreme mu.

    For mu > 5000 summing tens of thousands of terms adds cost without
    insight, so the exact spectral propagator is used instead and the
    result is flagged as delegated.
    """
    mu = kernel.intensity(t)
    if mu > DELEGATION_MU:
        field = rosenau_propagate(g0, kernel, t)
        return WildResult(field=field, truncation=WildTruncation(terms=0, mu=mu), delegated=True)
    n_star = truncation_order(mu, tol)
    field = wild_partial_sum(g0, kernel, t, n_star)
    return WildResult(field=field, truncation=WildTruncation(terms=n_star, mu=mu), delegated=False)


def cd_fundamental_atoms(kernel: BackgroundKernel, n: int) -> Tuple[Tuple[float, float], ...]:
    """Atoms of the n-fold convolution power of the Bernoulli background.

    Locations (-n + 2j) eps sigma with weights 2^-n binom(n, j); the weights
    sum to one.  Only defined for the two-atom central-difference family.
    """
    if kernel.family != CENTRAL_DIFF:
        raise UnsupportedKernelError("atomic expansion requires the central-difference kernel")
    if n < 0:
        raise InvalidParameterError("convolution order must be nonnegative")
    a = kernel.epsilon * kernel.sigma
    j = np.arange(n + 1, dtype=float)
    logw = gammaln(n + 1.0) - gammaln(j + 1.0) - gammaln(n - j + 1.0) - n * math.log(2.0)
    weights = np.exp(logw)
    locs = (-n + 2.0 * j) * a
    return tuple((float(l), float(w)) for l, w in zip(locs, weights))


def cd_wild_solution(kernel: BackgroundKernel, t: float, tol: float = 1e-12,
                     grid: GridSpec = None) -> MixedDistribution:
    """Fully atomic fundamental solution of the central-difference family.

    The Poisson mixture of binomial atoms is the continuous-time random walk
    on the lattice (eps sigma) Z, whose weight at site m is exp(-mu) I_|m|(mu)
    (Abramowitz-Stegun 9.6.33).  Sites |m| <= N for the certified order N
    carry at least the Poisson mass P(X <= N), so the total retained mass
    lies in [1 - tol, 1] at any mu.
    """
    if kernel.family != CENTRAL_DIFF:
        raise UnsupportedKernelError("atomic solution requires the central-difference kernel")
    if t < 0:
        raise InvalidParameterError("time must be nonnegative")
    mu = kernel.intensity(t)
    n_star = truncation_order(mu, tol)
    a = kernel.epsilon * kernel.sigma
    m = np.arange(-n_star, n_star + 1)
    weights = ive(np.abs(m), mu)
    keep = weights > 0.0
    atoms = tuple(zip((a * m[keep]).tolist(), weights[keep].tolist()))
    if grid is None:
        span = 2.2 * max(a * (n_star + 1), 1.0)
        points = 16
        grid = GridSpec(length=span, points=points)
    return MixedDistribution(grid=grid, density=np.zeros(grid.points), atoms=atoms)
