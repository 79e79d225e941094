"""Wild sum representation of the kinetic solution with certified truncation.

The solution is the Poisson mixture

    g(t) = exp(-mu) * sum_n (mu^n / n!) M^(*n) * g0,     mu = lam t / eps^2,

so truncating after N terms discards exactly the Poisson tail mass beyond N.
Poisson weights are summed in log space outward from the mode (mu can exceed
1e4 at small eps) and the polynomial in Mhat is summed by Horner's rule.  For
the central-difference family the mixture has the closed form
exp(-mu) I_|m|(mu) at lattice site m, evaluated by Miller's backward
recurrence.  The module needs numpy and math only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidParameterError, UnsupportedKernelError
from .kernels import CENTRAL_DIFF, BackgroundKernel
from .spectral import GridSpec, MixedDistribution, SpectralField, rosenau_propagate

# beyond this Poisson intensity direct summation is cross-checked no further;
# the spectral propagator takes over
DELEGATION_MU = 5000.0
# exp(-800) lies below the smallest subnormal double: outside the window this
# log-pmf floor spans the Poisson pmf is exactly zero in floating point
_LOG_FLOOR = -800.0
_MAX_ORDER = 10**9
# terms of Miller's backward recurrence run beyond the last site it returns
_MILLER_MARGIN = 64
_TINY = float(np.finfo(float).tiny)


def _pmf_window(mu: float) -> Tuple[int, int]:
    """(lo, hi) outside which the Poisson(mu) pmf is below exp(_LOG_FLOOR).

    Below the mean log p(mu-x)/p(mu) <= -x^2/(2 mu); above it Bennett's
    bound (1+u) log(1+u) - u >= u^2/(2 + 2u/3), x = u mu, gives the edge.
    40 more sites on each side cover the mode's offset from mu and the
    pmf's prefactor.
    """
    if mu < 0 or not math.isfinite(mu):
        raise InvalidParameterError("mu must be finite and nonnegative")
    if mu == 0.0:
        return 0, 0
    c = -_LOG_FLOOR
    mode = math.floor(mu)
    lo = max(0, mode - math.ceil(math.sqrt(2.0 * c * mu)) - 40)
    hi = mode + math.ceil(c / 3.0 + math.sqrt(c * c / 9.0 + 2.0 * c * mu)) + 40
    return lo, hi


def _log_poisson_pmf(mu: float) -> Tuple[int, np.ndarray]:
    """(lo, log P(X = n) for n = lo..hi) for X ~ Poisson(mu) on its pmf window.

    The log ratios log(mu/k) are summed outward from the mode floor(mu) and
    the window sum normalises the result, so no log-gamma enters and the
    error stays at a few ulp wherever the pmf is not negligible, at any mu.
    """
    lo, hi = _pmf_window(mu)
    mode = math.floor(mu)
    down = np.log(np.arange(mode, lo, -1, dtype=float) / mu)   # log p(k-1)/p(k), k = mode..lo+1
    up = np.log(mu / np.arange(mode + 1, hi + 1, dtype=float))  # log p(k)/p(k-1), k = mode+1..hi
    logq = np.concatenate((np.cumsum(down)[::-1], [0.0], np.cumsum(up)))
    return lo, logq - math.log(float(np.sum(np.exp(logq))))


def _poisson_tails(mu: float) -> Tuple[int, np.ndarray]:
    """(lo, P(X > n) for n = lo..hi): the pmf summed from the far end.

    Below lo the tail is 1 and from hi on it is 0 to double precision.
    """
    lo, logp = _log_poisson_pmf(mu)
    at_least = np.cumsum(np.exp(logp)[::-1])[::-1]
    return lo, np.append(at_least[1:], 0.0)


def poisson_tail(mu: float, n: int) -> float:
    """P(X > n) for X ~ Poisson(mu)."""
    lo, hi = _pmf_window(mu)
    if n < lo:
        return 1.0
    if n >= hi:
        return 0.0
    _, tails = _poisson_tails(mu)
    return float(tails[n - lo])


@dataclass(frozen=True)
class WildTruncation:
    """Truncation certificate: N kept terms (None: exact propagator), intensity mu, tail mass."""

    terms: Optional[int]
    mu: float

    @property
    def tail_mass(self) -> float:
        return 0.0 if self.terms is None else poisson_tail(self.mu, self.terms)


def truncation_order(mu: float, tol: float) -> int:
    """Smallest N whose Poisson tail beyond N is at most tol.

    Read off one array of tails; the returned N satisfies
    tail(N) <= tol < tail(N-1).
    """
    if not (0.0 < tol < 1.0):
        raise InvalidParameterError("tol must lie in (0, 1)")
    n, _ = _pmf_window(mu)  # the tail is 1 below the window
    if n <= _MAX_ORDER:
        _, tails = _poisson_tails(mu)
        n += int(np.argmax(tails <= tol))
    if n > _MAX_ORDER:
        raise InvalidParameterError("truncation order exceeds 1e9; check mu and tol")
    return n


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
    weights = np.zeros(n_terms + 1)
    lo, hi = _pmf_window(mu)
    if n_terms >= lo:
        _, logp = _log_poisson_pmf(mu)
        weights[lo:hi + 1] = np.exp(logp[:n_terms + 1 - lo])
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
        return WildResult(field=field, truncation=WildTruncation(terms=None, mu=mu), delegated=True)
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
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n + 1)])
    weights = np.exp(log_fact[n] - log_fact - log_fact[::-1] - n * math.log(2.0))
    locs = (-n + 2.0 * np.arange(n + 1, dtype=float)) * a
    return tuple((float(l), float(w)) for l, w in zip(locs, weights))


def _bessel_weights(mu: float, n: int) -> np.ndarray:
    """exp(-mu) I_m(mu) for m = 0..n by Miller's backward recurrence.

    The ratios r_m = I_m / I_(m-1) obey r_m = 1 / (2m/mu + r_(m+1)); started
    from r = 0 well past n they converge to machine precision and all lie
    in (0, 1), so nothing overflows.  The weights are r_1 ... r_m products
    scaled by w_0 from exp(mu) = I_0 + 2 sum_(m>=1) I_m, in O(n) work.
    """
    if mu == 0.0:
        return np.concatenate(([1.0], np.zeros(n)))
    top = n + _MILLER_MARGIN
    ratios = np.empty(top)
    r = 0.0
    for k in range(top, 0, -1):
        r = 1.0 / (2.0 * k / mu + r)
        ratios[k - 1] = r
    prod = np.cumprod(ratios)
    w0 = 1.0 / (1.0 + 2.0 * float(np.sum(prod)))
    return w0 * np.concatenate(([1.0], prod[:n]))


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
    weights = _bessel_weights(mu, n_star)[np.abs(m)]
    keep = weights >= _TINY  # subnormal weights carry too few bits to keep
    atoms = tuple(zip((a * m[keep]).tolist(), weights[keep].tolist()))
    if grid is None:
        span = 2.2 * max(a * (n_star + 1), 1.0)
        points = 16
        grid = GridSpec(length=span, points=points)
    return MixedDistribution(grid=grid, density=np.zeros(grid.points), atoms=atoms)
