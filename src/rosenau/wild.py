"""Wild sum representation of the kinetic solution with certified truncation.

The solution is the Poisson mixture

    g(t) = exp(-mu) * sum_n (mu^n / n!) M^(*n) * g0,     mu = lam t / eps^2,

so keeping the orders n_lo..N discards exactly the Poisson mass outside them.
Only O(sqrt(mu)) orders carry mass: half of tol bounds each tail, Horner's
rule sums the window in real arithmetic (every kernel is mirror-symmetric, so
Mhat is real) and Mhat^n_lo is applied once.  For the central-difference
family the mixture has the closed form exp(-mu) I_|m|(mu) at lattice site m,
evaluated by Miller's backward recurrence.  The module needs numpy and math only.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from .errors import InvalidParameterError, UnsupportedKernelError
from .kernels import CENTRAL_DIFF, BackgroundKernel
from .spectral import GridSpec, MixedDistribution, SpectralField, _require_time, rosenau_propagate

# above this Poisson intensity the spectral propagator replaces the window sum
DELEGATION_MU = 1e5
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


def poisson_tail(mu: float, n: int) -> float:
    """P(X > n) for X ~ Poisson(mu)."""
    lo, hi = _pmf_window(mu)
    if n < lo:
        return 1.0
    return float(_poisson_tails(mu)[2][min(n, hi) - lo])


@dataclass(frozen=True)
class WildTruncation:
    """Truncation certificate: orders lowest..terms kept at intensity mu (terms
    None: exact propagator), tail_mass the Poisson mass discarded below and above."""

    terms: Optional[int]
    mu: float
    lowest: int = 0
    tail_mass: float = field(init=False, default=0.0)

    def __post_init__(self):
        if self.terms is not None:
            lo, _, _, below = _poisson_tails(self.mu)
            lower = below[np.clip(self.lowest - lo, 0, below.size - 1)]
            object.__setattr__(self, "tail_mass", float(lower) + poisson_tail(self.mu, self.terms))


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
    """sum_k weights[k] Mhat^(lowest+k) g0hat: real Horner, then Mhat^lowest g0hat once."""
    mhat = np.asarray(kernel.symbol(g0.grid.xi()), dtype=float)
    acc = np.full(mhat.shape, weights[-1] if weights.size else 0.0)
    for w in weights[-2::-1]:
        acc *= mhat
        acc += w
    return SpectralField(grid=g0.grid, values=acc * mhat**lowest * g0.values)


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
    delegated: bool


def wild_solution(g0: SpectralField, kernel: BackgroundKernel, t: float,
                  tol: float = 1e-12) -> WildResult:
    """Wild sum over the certified window of orders, delegating at extreme mu.

    The window runs from n_lo, the largest order with P(X < n_lo) <= tol/2,
    to N* = truncation_order(mu, tol/2).  For mu > 1e5 its thousands of orders
    add cost without insight: the exact propagator is used, flagged delegated.
    """
    if not (0.0 < tol < 1.0):
        raise InvalidParameterError("tol must lie in (0, 1)")
    mu = kernel.intensity(t)
    if mu > DELEGATION_MU:
        return WildResult(field=rosenau_propagate(g0, kernel, t),
                          truncation=WildTruncation(terms=None, mu=mu), delegated=True)
    n_star = truncation_order(mu, tol / 2)
    lo, pmf, _, below = _poisson_tails(mu)
    n_lo = lo + int(np.argmax(below > tol / 2)) - 1
    return WildResult(field=_window_sum(g0, kernel, pmf[n_lo - lo:n_star + 1 - lo], n_lo),
                      truncation=WildTruncation(terms=n_star, mu=mu, lowest=n_lo), delegated=False)


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
    _require_time(t)
    mu = kernel.intensity(t)
    n_star = truncation_order(mu, tol)
    a = kernel.epsilon * kernel.sigma
    m = np.arange(-n_star, n_star + 1)
    weights = _bessel_weights(mu, n_star)[np.abs(m)]
    keep = weights >= _TINY  # subnormal weights carry too few bits to keep
    atoms = tuple(zip((a * m[keep]).tolist(), weights[keep].tolist()))
    if grid is None:
        grid = GridSpec(length=2.2 * max(a * (n_star + 1), 1.0), points=16)
    return MixedDistribution(grid=grid, density=np.zeros(grid.points), atoms=atoms)
