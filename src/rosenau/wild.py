"""Wild sum representation of the kinetic solution with certified truncation.

The solution is the Poisson mixture

    g(t) = exp(-mu) * sum_n (mu^n / n!) M^(*n) * g0,     mu = lam t / eps^2,

so keeping the orders n_lo..N discards exactly the Poisson mass outside them.
Only O(sqrt(mu)) orders carry mass: half of WILD_TOL bounds each tail, Horner's
rule sums the window in real arithmetic (every kernel is mirror-symmetric, so
Mhat is real) and Mhat^n_lo is applied once.  For the central-difference
family the mixture has the closed form exp(-mu) I_|m|(mu) at lattice site m,
evaluated by Miller's backward recurrence.  One Bernstein bound (_reach) says how
far either mixture reaches.  The module needs numpy and math only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidParameterError, UnsupportedKernelError
from .kernels import CENTRAL_DIFF, BackgroundKernel
from .spectral import GridSpec, MixedDistribution, SpectralField, _live, _require_time, rosenau_propagate

# above this Poisson intensity the spectral propagator replaces the window sum
DELEGATION_MU = 1e5
# Poisson mass a Wild solution may discard
WILD_TOL = 1e-12
# exp(-800) lies below the smallest subnormal double: outside the window this
# log-pmf floor spans the Poisson pmf is exactly zero in floating point
_LOG_FLOOR = -800.0
_MAX_ORDER = 10**9
# terms of Miller's backward recurrence run beyond the last site it returns
_MILLER_MARGIN = 64


def _reach(mu: float, c: float) -> int:
    """Least integer x where Bernstein's bound exp(-x^2 / (2 (mu + x/3))) on P(X - mu >= x),
    X ~ Poisson(mu), and on P(S >= x), S the walk of X steps of +-1, is exp(-c) or less."""
    if mu < 0 or not math.isfinite(mu):
        raise InvalidParameterError("mu must be finite and nonnegative")
    return math.ceil(c / 3.0 + math.sqrt(c * c / 9.0 + 2.0 * c * mu))


def _pmf_window(mu: float) -> Tuple[int, int]:
    """(lo, hi) outside which the Poisson(mu) pmf is below exp(_LOG_FLOOR).

    Below the mean log p(mu-x)/p(mu) <= -x^2/(2 mu); above it Bennett's
    bound (1+u) log(1+u) - u >= u^2/(2 + 2u/3), x = u mu, gives the edge
    _reach(mu, -_LOG_FLOOR).  40 more sites on each side cover the mode's
    offset from mu and the pmf's prefactor.
    """
    c = -_LOG_FLOOR
    up = _reach(mu, c) + 40
    if mu == 0.0:
        return 0, 0
    mode = math.floor(mu)
    return max(0, mode - math.ceil(math.sqrt(2.0 * c * mu)) - 40), mode + up


@functools.lru_cache(maxsize=1)
def _poisson_tails(mu: float) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(lo, P(X = n), P(X > n) for n = lo..hi, P(X < n) for n = lo..hi+1), X ~ Poisson(mu).

    The log ratios log(mu/k) are summed outward from the mode floor(mu) and
    the window sum normalises the pmf, so no log-gamma enters and the error
    stays at a few ulp wherever the pmf is not negligible, at any mu.  Each
    tail is summed from its far end: one minus the other would cancel.
    Read-only and memoised for the last mu alone: one pmf per Wild solution.
    """
    lo, hi = _pmf_window(mu)
    mode = math.floor(mu)
    down = np.log(np.arange(mode, lo, -1, dtype=float) / mu)   # log p(k-1)/p(k), k = mode..lo+1
    up = np.log(mu / np.arange(mode + 1, hi + 1, dtype=float))  # log p(k)/p(k-1), k = mode+1..hi
    logq = np.concatenate((np.cumsum(down)[::-1], [0.0], np.cumsum(up)))
    pmf = np.exp(logq - math.log(float(np.sum(np.exp(logq)))))
    tails = (pmf, np.append(np.cumsum(pmf[::-1])[::-1][1:], 0.0), np.append(0.0, np.cumsum(pmf)))
    for arr in tails:
        arr.flags.writeable = False
    return (lo, *tails)


@dataclass(frozen=True)
class WildTruncation:
    """Truncation certificate: orders lowest..terms kept at intensity mu (terms
    None: exact propagator), tail_mass the Poisson mass discarded below and above.
    Mhat^n amplifies the rounding of Mhat about n-fold, so the field may sit ~mu ulps
    further from exp(-mu (1 - Mhat)) g0hat; error_bound allows 8 mu 2^-53 for that."""

    terms: Optional[int]
    mu: float
    lowest: int = 0
    tail_mass: float = 0.0

    @property
    def error_bound(self) -> float:
        """Bound on |field - exp(-mu (1 - Mhat)) g0hat| in units of max |g0hat|."""
        return self.tail_mass + 8.0 * self.mu * 2.0**-53


def truncation_order(mu: float, tol: float) -> int:
    """Smallest N whose Poisson tail beyond N is at most tol.

    Read off one array of tails; the returned N satisfies
    tail(N) <= tol < tail(N-1).
    """
    if not (0.0 < tol < 1.0):
        raise InvalidParameterError("tol must lie in (0, 1)")
    n, _ = _pmf_window(mu)  # the tail is 1 below the window
    if n <= _MAX_ORDER:
        n += int(np.argmax(_poisson_tails(mu)[2] <= tol))
    if n > _MAX_ORDER:
        raise InvalidParameterError("truncation order exceeds 1e9; check mu and tol")
    return n


def _window_sum(g0: SpectralField, kernel: BackgroundKernel, weights, lowest: int) -> SpectralField:
    """sum_k weights[k] Mhat^(lowest+k) g0hat: real Horner, then Mhat^lowest g0hat once.

    The Horner loop runs only on the live span of Mhat^lowest g0hat.  Outside it
    that product is exactly 0, and so is acc times it for any |acc| <= 1: acc
    keeps its start value there.
    """
    mhat = np.asarray(kernel.symbol(g0.grid.xi()), dtype=float)
    low = mhat**lowest
    live = _live(low * g0.values)
    acc = np.full(mhat.shape, weights[-1] if weights.size else 0.0)
    span, m = acc[live], mhat[live]
    for w in weights[-2::-1]:
        span *= m
        span += w
    return SpectralField(grid=g0.grid, values=acc * low * g0.values)


def wild_partial_sum(g0: SpectralField, kernel: BackgroundKernel, t: float,
                     n_terms: int) -> SpectralField:
    """Partial sum exp(-mu) sum_{n<=N} (mu^n/n!) Mhat^n g0hat.

    Its mass is the Poisson cdf at N, rising monotonically to the full
    solution's.  Orders below the pmf window weigh exactly 0 and are skipped.
    """
    _require_time(t)
    if n_terms < 0:
        raise InvalidParameterError("term count must be nonnegative")
    lo, pmf, _, _ = _poisson_tails(kernel.intensity(t))
    return _window_sum(g0, kernel, pmf[:max(n_terms + 1 - lo, 0)], lo)


@dataclass(frozen=True)
class WildResult:
    field: SpectralField
    truncation: WildTruncation

    @property
    def delegated(self) -> bool:  # the exact propagator stood in for the window sum
        return self.truncation.terms is None


def wild_solution(g0: SpectralField, kernel: BackgroundKernel, t: float) -> WildResult:
    """Wild sum over the certified window of orders, delegating at extreme mu.

    The window runs from n_lo, the largest order with P(X < n_lo) <= WILD_TOL/2,
    to N* = truncation_order(mu, WILD_TOL/2).  For mu > 1e5 its thousands of orders
    add cost without insight: the exact propagator is used, with terms None.
    """
    mu = kernel.intensity(t)
    if mu > DELEGATION_MU:
        return WildResult(rosenau_propagate(g0, kernel, t), WildTruncation(terms=None, mu=mu))
    n_star = truncation_order(mu, WILD_TOL / 2)
    lo, pmf, above, below = _poisson_tails(mu)
    n_lo = lo + int(np.argmax(below > WILD_TOL / 2)) - 1
    tail_mass = float(below[n_lo - lo]) + float(above[n_star - lo])
    return WildResult(_window_sum(g0, kernel, pmf[n_lo - lo:n_star + 1 - lo], n_lo),
                      WildTruncation(terms=n_star, mu=mu, lowest=n_lo, tail_mass=tail_mass))


def _bessel_weights(mu: float, n: int) -> np.ndarray:
    """exp(-mu) I_m(mu) for m = 0..n by Miller's backward recurrence.

    The ratios r_m = I_m / I_(m-1) obey r_m = 1 / (2m/mu + r_(m+1)); started
    from r = 0 at n + _MILLER_MARGIN they converge to machine precision and
    all lie in (0, 1), so nothing overflows.  The weights are r_1 ... r_m
    products scaled by w_0 from exp(mu) = I_0 + 2 sum_(m>=1) I_m, in O(n) work.
    """
    if mu == 0.0:
        return np.concatenate(([1.0], np.zeros(n)))
    top = n + _MILLER_MARGIN
    if top > _MAX_ORDER:
        raise InvalidParameterError("Miller's recurrence would start beyond 1e9; check mu")
    ratios = np.empty(top)
    r = 0.0
    for k in range(top, 0, -1):
        r = 1.0 / (2.0 * k / mu + r)
        ratios[k - 1] = r
    prod = np.cumprod(ratios)
    w0 = 1.0 / (1.0 + 2.0 * float(np.sum(prod)))
    return w0 * np.concatenate(([1.0], prod[:n]))


def cd_wild_solution(kernel: BackgroundKernel, t: float) -> MixedDistribution:
    """Fully atomic fundamental solution of the central-difference family.

    The Poisson mixture of binomial atoms is the continuous-time random walk
    on the lattice (eps sigma) Z, whose weight at site m is exp(-mu) I_|m|(mu)
    (Abramowitz-Stegun 9.6.33).  With c = log(4/WILD_TOL), exp(-c) = WILD_TOL/4 bounds
    the mass beyond _reach(mu, c) on each side.  Of the sites out to it, the smallest
    window |m| <= M is kept whose dropped sites, summed from the far end, carry at most
    WILD_TOL/2: the retained mass lies in [1 - WILD_TOL, 1] at any mu.  Miller's
    recurrence starts past _reach(mu, 2c): 5e-13 relative accuracy up to mu = 9.9e4.
    """
    if kernel.family != CENTRAL_DIFF:
        raise UnsupportedKernelError("atomic solution requires the central-difference kernel")
    _require_time(t)
    mu = kernel.intensity(t)
    c = math.log(4.0 / WILD_TOL)
    reach = _reach(mu, c)
    weights = _bessel_weights(mu, _reach(mu, 2.0 * c))[:reach + 1]
    beyond = np.append(2.0 * np.cumsum(weights[:0:-1])[::-1], 0.0)  # mass at M < |m| <= reach, M = 0..reach
    edge = int(np.argmax(beyond <= WILD_TOL / 2))
    a = kernel.epsilon * kernel.sigma
    m = np.arange(-edge, edge + 1)
    atoms = tuple(zip((a * m).tolist(), weights[np.abs(m)].tolist()))
    grid = GridSpec(length=2.2 * max(a * (edge + 1), 1.0), points=16)
    return MixedDistribution(grid=grid, density=np.zeros(grid.points), atoms=atoms)
