"""Fourier-based d_s metrics, the L1 norm, moments and convex functionals.

The d_s distance between probability distributions is

    d_s(f1, f2) = sup over xi != 0 of |f1hat(xi) - f2hat(xi)| / |xi|^s,

finite when moments agree up to the order determined by s.  |f1hat - f2hat| is even in
xi for real measures, so the sup is taken over the grid's xi <= 0, and only over the
union of the two fields' live spans there (``HalfLine.live``): outside it both are zero.
On a grid the sup often sits at xi -> 0 where the ratio is noise-dominated, so the bins
below 8 grid spacings are excluded from the raw scan and an extrapolated small-frequency
limit (driven by the first mismatched moment) is taken into the reported maximum instead;
its fits are skipped where the grid sup is sure to win.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .errors import InfiniteDistanceError, InvalidParameterError, UndefinedFunctionalError
from .spectral import GridSpec, MixedDistribution, SpectralField, _live, gaussian_reference

# bins below this multiple of dxi are handled by extrapolation, not raw ratio
SMALL_XI_BINS = 8
# |delta| below this (relative to the field scale) is roundoff, not signal
NOISE_FLOOR = 1e-13


class MetricReport(NamedTuple):
    """A metric value and the frequency where its supremum was attained (0 if none)."""

    value: float
    argsup: float


def _small_xi_part(x: np.ndarray, delta: np.ndarray, s: float, scale: float,
                   grid_sup: float = -math.inf) -> float:
    """Supremum contribution of the bins below the cutoff, including xi -> 0.

    Raw ratios above the noise floor are trusted as-is.  The endpoint limit
    is estimated from the leading power p of |delta| ~ c |xi|^p: a ratio
    that keeps growing toward the origin (p well below s) signals a
    mismatched low moment and an infinite distance; p above s sends the
    ratio to zero; p near s is extrapolated on the xi^2 axis (moduli of
    transform differences of real measures expand in even powers).
    The result is at most 2 raw_sup, so when that is <= ``grid_sup`` and no
    divergence can be raised the fits are skipped and raw_sup, which the grid
    sup beats, is returned.
    """
    good = delta > NOISE_FLOOR * scale
    if np.count_nonzero(good) < 6:
        return 0.0
    xg, dg = x[good], delta[good]
    order = np.argsort(xg)
    xg, dg = xg[order], dg[order]
    ratio = dg / xg**s
    raw_sup = float(np.max(ratio))
    # medians of three by sorting: np.median would import numpy.ma on first use
    inner = float(np.sort(ratio[:3])[1])
    outer = float(np.sort(ratio[-3:])[1])
    if inner <= 3.0 * outer and 2.0 * raw_sup <= grid_sup:
        return raw_sup
    # leading power from the innermost bins, where higher-order terms
    # distort it least; a window-wide fit is fooled by nearby sign dips
    p = np.polyfit(np.log(xg[:4]), np.log(dg[:4]), 1)[0]
    if p < s - 0.35 and inner > 3.0 * outer:
        raise InfiniteDistanceError(
            f"|difference| ~ |xi|^{p:.2f} near 0 but s = {s}: distance diverges"
        )
    if not (s - 0.35 <= p <= s + 0.35):
        return raw_sup
    coeffs = np.polyfit(xg**2, ratio, 2)
    limit = min(max(float(coeffs[-1]), 0.0), 2.0 * raw_sup)
    return max(raw_sup, limit)


class HalfLine(NamedTuple):
    """A transform at the grid's xi <= 0, indices 0..N/2 of grid.xi(), and the slice ``live``
    of those values outside which every value is a zero (None: found on use)."""

    grid: GridSpec
    values: np.ndarray
    live: Optional[slice] = None


_LAYOUT_LOCK = threading.Lock()  # pool threads missing a cache at once would each build


@functools.lru_cache(maxsize=8)
def _half_frame(grid: GridSpec, sigma_sq: float) -> Tuple[np.ndarray, HalfLine]:
    xi = grid.xi()[: grid.points // 2 + 1]
    values = gaussian_reference(grid, sigma_sq).at(xi)
    ref = HalfLine(grid, values, _live(values))
    xi.flags.writeable = ref.values.flags.writeable = False
    return xi, ref


def half_frame(grid: GridSpec, sigma_sq: float) -> Tuple[np.ndarray, HalfLine]:
    """The grid's xi <= 0 and exp(-sigma_sq xi^2) on them, built once per (grid, sigma_sq)."""
    with _LAYOUT_LOCK:
        return _half_frame(grid, sigma_sq)


@functools.lru_cache(maxsize=8)
def _ds_layout(grid: GridSpec, s: float):
    """The count of outer bins (a prefix of xi <= 0), |xi| and |xi|^s on them, the inner bins and
    their |xi|, shared per (grid, s), read-only."""
    absxi = np.abs(grid.xi()[: grid.points // 2 + 1])
    cutoff = SMALL_XI_BINS * grid.dxi
    n_outer = int(np.count_nonzero(absxi >= cutoff))
    inner = np.flatnonzero((absxi > 0.5 * grid.dxi) & (absxi < cutoff))
    inner = np.concatenate((inner, inner[::-1]))  # |xi| = 7..1, 1..7 dxi: the full line's order
    layout = (absxi[:n_outer], absxi[:n_outer] ** s, inner, absxi[inner])
    for a in layout:
        a.flags.writeable = False
    return (n_outer, *layout)


def _half_live(f: SpectralField | HalfLine, half: int) -> slice:
    if isinstance(f, HalfLine):
        return _live(f.values) if f.live is None else f.live
    return slice(min(f._span.start, half), min(f._span.stop, half))


def ds_distance(f1: SpectralField | HalfLine, f2: SpectralField | HalfLine, s: float) -> MetricReport:
    """Fourier distance of order s of two fields on one grid, the sup taken over xi <= 0, since
    |f1hat - f2hat| is even for real measures: the first N/2 + 1 values of each field.  Both
    fields are zero outside the union of their live spans, so the scan covers that alone."""
    if not 0.0 < s < math.inf:
        raise InvalidParameterError(f"order s must be positive and finite, got {s}")
    if f1.grid != f2.grid:
        raise InvalidParameterError("fields must share one grid")
    grid, half = f1.grid, f1.grid.points // 2 + 1
    with _LAYOUT_LOCK:
        n_outer, abs_outer, pow_outer, inner, abs_inner = _ds_layout(grid, s)
    spans = [sp for sp in (_half_live(f1, half), _half_live(f2, half)) if sp.start < sp.stop]
    lo, hi = (min(sp.start for sp in spans), max(sp.stop for sp in spans)) if spans else (0, 0)
    if not pow_outer[-1] > 0.0:  # |xi|^s underflows: the full scan's 0 / 0 is a NaN to keep
        lo, hi = 0, max(hi, n_outer)
    v1, v2 = f1.values[lo:hi], f2.values[lo:hi]
    scale = max(1.0, float(np.max(np.abs(v1), initial=0.0)), float(np.max(np.abs(v2), initial=0.0)))

    top = max(min(hi, n_outer), lo)
    ratio = np.abs(v1[:top - lo] - v2[:top - lo]) / pow_outer[lo:top]
    k = int(np.argmax(ratio)) if ratio.size else 0
    grid_sup = float(ratio[k]) if ratio.size else 0.0
    # the ratio is 0 outside the span: where it is 0 throughout, the full scan's argmax is bin 0
    argsup = float(abs_outer[lo + k]) if grid_sup != 0.0 else float(abs_outer[0])
    delta_inner = np.abs(f1.values[inner] - f2.values[inner])
    limit = _small_xi_part(abs_inner, delta_inner, s, scale, grid_sup)
    return MetricReport(limit, 0.0) if limit > grid_sup else MetricReport(grid_sup, argsup)


def l1_norm(d: MixedDistribution) -> float:
    """L1 norm: grid quadrature of |density| plus |weight| of each atom."""
    dens = d.grid.dv * float(np.sum(np.abs(d.density)))
    return dens + sum(abs(w) for _, w in d.atoms)


def moment(d: MixedDistribution, k: int, signed: bool = False) -> float:
    """k-th moment: atom sum plus grid quadrature of the density part."""
    if k < 0 or int(k) != k:
        raise InvalidParameterError("moment order must be a nonnegative integer")
    v = d.grid.v()
    w = v**k if signed else np.abs(v) ** k
    total = d.grid.dv * float(np.sum(w * d.density))
    for loc, mass in d.atoms:
        total += mass * (loc**k if signed else abs(loc) ** k)
    return total


def convex_functional(d: MixedDistribution, phi: Callable[[np.ndarray], np.ndarray]) -> float:
    """Quadrature of phi(density) over the grid; undefined when atoms are present."""
    if d.atoms:
        raise UndefinedFunctionalError(
            "convex functionals act on densities; strip atoms first "
            "(their mass is reported separately by the solution pipelines)"
        )
    return d.grid.dv * float(np.sum(phi(d.density)))


def phi_r2(r: np.ndarray) -> np.ndarray:
    return np.asarray(r) ** 2


def phi_rlogr(r: np.ndarray) -> np.ndarray:
    r = np.asarray(r)
    # r log r extends by 0 at r = 0; negative ringing values are clipped
    safe = np.maximum(r, 1e-300)
    return np.where(r > 0.0, r * np.log(safe), 0.0)


def phi_r4(r: np.ndarray) -> np.ndarray:
    return np.asarray(r) ** 4


CONVEX_FUNCTIONALS = {"r2": phi_r2, "rlogr": phi_rlogr, "r4": phi_r4}
