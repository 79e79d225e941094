"""Fourier-based d_s metrics, the L1 norm, moments and convex functionals.

The d_s distance between probability distributions is

    d_s(f1, f2) = sup over xi != 0 of |f1hat(xi) - f2hat(xi)| / |xi|^s,

finite when moments agree up to the order determined by s.  |f1hat - f2hat| is even in
xi for real measures, so the sup is taken over the grid's xi <= 0, and only over the
union of the two fields' live spans there (``HalfLine.live``): outside it both are zero.
Two half-line fields with envelopes are scanned only out to a horizon beyond which no bin can
hold the sup (``ds_distance``), and a ``HalfLineProduct`` computes no sample beyond it.  Nor does
its datum where the datum's field has a ``modulus`` (``closure_line``): the datum is then a
``HalfLineClosure``, filled on demand, whose envelope comes from the modulus and whose ``live``
span, a superset of the nonzero one, from that envelope.
On a grid the sup often sits at xi -> 0 where the ratio is noise-dominated, so the bins
below 8 grid spacings are excluded from the raw scan and an extrapolated small-frequency
limit (driven by the first mismatched moment) is taken into the reported maximum instead;
its fits are skipped where the grid sup is sure to win.  Every field compared is the
transform of a probability distribution (a preset datum, the Gaussian profile, ``file:``
data written by ``simulate``, or one of these propagated), so |fhat| <= fhat(0) = 1 and
the noise floor on |f1hat - f2hat| is absolute.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
import threading
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .errors import InfiniteDistanceError, InvalidParameterError, RosenauError, UndefinedFunctionalError
from .spectral import GridSpec, MixedDistribution, SpectralField, _live, gaussian_reference

# bins below this multiple of dxi are handled by extrapolation, not raw ratio
SMALL_XI_BINS = 8
# |delta| below this is roundoff, not signal: every field is a probability transform, |f| <= 1
NOISE_FLOOR = 1e-13
# the limit fit's |xi| range: its xi^4 column's norm, sqrt(sum xi^8) over at most 14 inner bins,
# stays a normal double above the low end and a finite one below the high end
FIT_XI_MIN = sys.float_info.min ** 0.125
FIT_XI_MAX = (sys.float_info.max / 14.0) ** 0.125
# a d_s scan of two HalfLines with envelopes starts on this many innermost outer bins of their span;
# the count sets the speed alone, never a bit of the result
HORIZON_CORE = 256
# an envelope holds one running maximum per block of this many samples
ENVELOPE_BLOCK = 256
# relative margin of the horizon's comparison: a few ulps of the rounding of complex moduli and of
# |xi|^s, and of an exp(y <= 0) that a platform may round above 1
HORIZON_SLACK = 16 * sys.float_info.epsilon


class MetricReport(NamedTuple):
    """A metric value and the frequency where its supremum was attained (0 if none)."""

    value: float
    argsup: float


def _small_xi_part(x: np.ndarray, delta: np.ndarray, s: float,
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
    good = delta > NOISE_FLOOR
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
    if not math.isfinite(raw_sup) or xg[-1] < FIT_XI_MIN:
        raise RosenauError(f"bins at |xi| <= {xg[-1]:.3g} are too close to 0 to extrapolate "
                           f"the d_{s:g} limit in double precision")
    if xg[-1] > FIT_XI_MAX:
        raise RosenauError(f"bins at |xi| up to {xg[-1]:.3g} are too far from 0 to extrapolate "
                           f"the d_{s:g} limit in double precision")
    coeffs = np.polyfit(xg**2, ratio, 2)
    limit = min(max(float(coeffs[-1]), 0.0), 2.0 * raw_sup)
    return max(raw_sup, limit)


class HalfLine:
    """A transform at the grid's xi <= 0, indices 0..N/2 of grid.xi(), and the slice ``live``
    of those values outside which every value is a zero (None: found on use).  ``upto`` gives
    the values with those from an index to xi = 0 final, and ``envelope`` bounds them."""

    def __init__(self, grid: GridSpec, values: Optional[np.ndarray], live: Optional[slice] = None):
        self.grid, self.live, self._values = grid, live, values

    @property
    def values(self) -> np.ndarray:
        return self.upto(0)

    def upto(self, start: int) -> np.ndarray:
        """The values, final from index ``start`` to xi = 0; here all of them are."""
        return self._values

    @functools.cached_property
    def envelope(self) -> Optional[np.ndarray]:
        """``envelope(values)``, found on first use."""
        return envelope(self._values)

    def narrow(self) -> bool:
        """Set ``live`` to the first to last nonzero value; True when that changed it."""
        live = _live(self.values)
        changed, self.live = live != self.live, live
        return changed


def envelope(values: np.ndarray) -> np.ndarray:
    """Running maxima of |values| over blocks of ENVELOPE_BLOCK samples from index 0: entry
    k // ENVELOPE_BLOCK bounds |values[j]| at every j <= k.  Nondecreasing, and NaN from the
    block of the first NaN on."""
    starts = np.arange(0, values.size, ENVELOPE_BLOCK)
    return np.maximum.accumulate(np.maximum.reduceat(np.abs(values), starts))


def closure_line(f: SpectralField, nodes: np.ndarray) -> HalfLine:
    """f's closure at half-line nodes: filled on demand (``HalfLineClosure``) where f has a
    modulus, else at once, with its nonzero span as ``live``."""
    if f.modulus is not None:
        return HalfLineClosure(f, nodes)
    values = f.at(nodes)
    return HalfLine(f.grid, values, _live(values))


class HalfLineClosure(HalfLine):
    """f.at(nodes) on xi <= 0 for a field with a ``modulus`` m, each sample computed once, on
    first use, from xi = 0 outward.

    ``envelope`` is the running maximum of m at the outermost node and at each envelope
    block's innermost node: m does not increase with |xi| short of an inf tail, which then
    holds the outermost node, so entry k bounds every sample out from block k.  ``live`` runs
    from the first block whose entry is nonzero to xi = 0, a superset of the nonzero span
    found without computing a sample; ``narrow`` fills the line to find that span itself."""

    def __init__(self, f: SpectralField, nodes: np.ndarray):
        inner = np.arange(-1, nodes.size + ENVELOPE_BLOCK - 1, ENVELOPE_BLOCK)
        inner[0], inner[-1] = 0, nodes.size - 1
        self.envelope = np.maximum.accumulate(np.asarray(f.modulus(nodes[inner]), dtype=float))[1:]
        dead = int(np.count_nonzero(self.envelope == 0.0))  # zeros lead a nondecreasing envelope
        live = slice(dead * ENVELOPE_BLOCK, nodes.size) if dead < self.envelope.size else slice(0, 0)
        super().__init__(f.grid, None, live)
        self._at, self._nodes, self._done = f.at, nodes, nodes.size

    def upto(self, start: int) -> np.ndarray:
        if start < self._done:
            part = self._at(self._nodes[start:self._done])
            if self._values is None:
                self._values = np.empty(self._nodes.size, part.dtype)
            self._values[start:self._done] = part
            self._done = start
        return self._values


_ONE = np.ones((), float)  # datum * 1 keeps each zero's sign, in either dtype


class HalfLineProduct(HalfLine):
    """datum * mult(nodes) on xi <= 0, each sample computed once, on first use, from xi = 0
    outward, with the arithmetic of ``spectral._multiply_live`` for a real multiplier: mult is
    evaluated on the live span alone, and outside it the sample is datum * 1.  The datum is
    read through its ``upto``, so a datum filled on demand is filled no further out.

    ``live`` is the datum's, or a superset of it on which 0 <= mult <= 1, where datum * mult
    is the same +-0 as datum * 1.  ``envelope`` is the datum's, given when 0 <= mult <= 1 on
    the live span, so that |fl(datum * mult)| <= |datum| bounds every sample; None otherwise,
    and then no d_s scan of the field stops at a horizon."""

    def __init__(self, datum: HalfLine, nodes: np.ndarray, live: slice,
                 mult: Callable[[np.ndarray], np.ndarray], bound: Optional[np.ndarray]):
        super().__init__(datum.grid, None, live)
        self._datum, self._nodes, self._mult = datum, nodes, mult
        self._done = nodes.size  # the samples from here to xi = 0 are final
        self.envelope = bound

    def upto(self, start: int) -> np.ndarray:
        if start < self._done:
            datum, done = self._datum.upto(start), self._done
            if self._values is None:
                self._values = np.empty(datum.shape, np.result_type(datum, float))
            a = min(max(self.live.start, start), done)  # [a, b): the live part of [start, done)
            b = max(min(self.live.stop, done), a)
            for lo, hi, live in ((start, a, False), (a, b, True), (b, done, False)):
                if lo < hi:
                    np.multiply(datum[lo:hi], self._mult(self._nodes[lo:hi]) if live else _ONE,
                                out=self._values[lo:hi])
            self._done = start
        return self._values


_LAYOUT_LOCK = threading.Lock()  # pool threads missing a cache at once would each build


@functools.lru_cache(maxsize=8)
def _half_frame(grid: GridSpec, sigma_sq: float) -> Tuple[np.ndarray, HalfLine]:
    xi = grid.xi()[: grid.points // 2 + 1]
    values = gaussian_reference(grid, sigma_sq).at(xi)
    ref = HalfLine(grid, values, _live(values))
    xi.flags.writeable = ref.values.flags.writeable = ref.envelope.flags.writeable = False
    return xi, ref


def half_frame(grid: GridSpec, sigma_sq: float) -> Tuple[np.ndarray, HalfLine]:
    """The grid's xi <= 0 and exp(-sigma_sq xi^2) on them, with its envelope, built once per
    (grid, sigma_sq)."""
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
    with np.errstate(over="ignore"):  # inf where |xi|^s overflows
        layout = (absxi[:n_outer], absxi[:n_outer] ** s, inner, absxi[inner])
    for a in layout:
        a.flags.writeable = False
    return (n_outer, *layout)


def _half_live(f: SpectralField | HalfLine, half: int) -> slice:
    if isinstance(f, HalfLine):
        return _live(f.values) if f.live is None else f.live
    return slice(min(f._span.start, half), min(f._span.stop, half))


def _horizon(e1: np.ndarray, e2: np.ndarray, pows: np.ndarray, lo: int, hi: int,
             floor: float) -> int:
    """An index h in [lo, hi] with (e1 + e2) / pows below ``floor`` at h - 1 (unless h = lo), found
    by bisection, e1 and e2 read at the index's envelope block.  Envelopes bound every sample
    up to their index and pows falls with it, so that bound also holds, up to the rounding of
    pows, at every outer bin below h - 1."""
    while lo < hi:
        mid = (lo + hi) // 2
        block = mid // ENVELOPE_BLOCK
        if (e1[block] + e2[block]) / pows[mid] < floor:  # a NaN bound is never below floor
            lo = mid + 1
        else:
            hi = mid
    return lo


def ds_distance(f1: SpectralField | HalfLine, f2: SpectralField | HalfLine, s: float) -> MetricReport:
    """Fourier distance of order s of two fields on one grid, the sup taken over xi <= 0, since
    |f1hat - f2hat| is even for real measures: the first N/2 + 1 values of each field.  Both
    fields are zero outside the union of their live spans, so the scan covers that alone.
    Both must be transforms of probability distributions, |fhat| <= fhat(0) = 1: the
    ``NOISE_FLOOR`` of the small-xi limit is absolute.

    Two ``HalfLine`` fields with envelopes e1, e2 are scanned from a core of the innermost
    outer bins, whose largest ratio s0 is a lower bound on the grid sup, out to a horizon:
    past it every bin has (e1 + e2) / |xi|^s below s0, so its ratio |f1 - f2| / |xi|^s, at
    most that bound as rounding is monotone, is below the sup and cannot be its first argmax.
    Value and argsup are those of the whole span's scan."""
    if not 0.0 < s < math.inf:
        raise InvalidParameterError(f"order s must be positive and finite, got {s}")
    if f1.grid != f2.grid:
        raise InvalidParameterError("fields must share one grid")
    grid, half = f1.grid, f1.grid.points // 2 + 1
    with _LAYOUT_LOCK:
        n_outer, abs_outer, pow_outer, inner, abs_inner = _ds_layout(grid, s)
    spans = [sp for sp in (_half_live(f1, half), _half_live(f2, half)) if sp.start < sp.stop]
    lo, hi = (min(sp.start for sp in spans), max(sp.stop for sp in spans)) if spans else (0, 0)
    envelopes = [f.envelope if isinstance(f, HalfLine) else None for f in (f1, f2)]
    underflow = not pow_outer[-1] > 0.0
    bounded = all(e is not None for e in envelopes) and not underflow
    if underflow:  # |xi|^s underflows: the full scan's 0 / 0 is a NaN to keep
        lo, hi = 0, max(hi, n_outer)
    top = max(min(hi, n_outer), lo)

    def upto(a: int) -> Tuple[np.ndarray, np.ndarray]:  # values final from index a to xi = 0
        return tuple(f.upto(a) if isinstance(f, HalfLine) else f.values for f in (f1, f2))

    def ratio(a: int, b: int) -> np.ndarray:
        v1, v2 = upto(a)
        return np.abs(v1[a:b] - v2[a:b]) / pow_outer[a:b]

    # where |xi|^s leaves the doubles, its 0 / 0 and x / inf are kept without a warning
    quiet = np.errstate(divide="ignore", invalid="ignore", over="ignore") \
        if underflow or pow_outer[-1] == math.inf else contextlib.nullcontext()
    with quiet:
        start = max(lo, top - HORIZON_CORE) if bounded else lo
        scan = ratio(start, top)
        s0 = float(np.max(scan)) if scan.size else 0.0
        if start > lo:  # s0 = 0 bounds nothing, and a NaN s0 is the whole span's sup
            horizon = _horizon(*envelopes, pow_outer, lo, start, s0 * (1.0 - HORIZON_SLACK)) \
                if s0 > 0.0 else lo
            scan, start = np.concatenate((ratio(horizon, start), scan)), horizon
        k = int(np.argmax(scan)) if scan.size else 0
        grid_sup = float(scan[k]) if scan.size else 0.0
        # the ratio is 0 outside the span: where it is 0 throughout, the full scan's argmax is bin 0
        argsup = float(abs_outer[start + k]) if grid_sup != 0.0 else float(abs_outer[0])
        v1, v2 = upto(min(start, n_outer))  # the inner bins follow the outer ones
        limit = _small_xi_part(abs_inner, np.abs(v1[inner] - v2[inner]), s, grid_sup)
    return MetricReport(limit, 0.0) if limit > grid_sup else MetricReport(grid_sup, argsup)


def l1_norm(d: MixedDistribution) -> float:
    """L1 norm: grid quadrature of |density| plus |weight| of each atom."""
    dens = d.grid.dv * float(np.sum(np.abs(d.density)))
    return dens + sum(abs(w) for _, w in d.atoms)


@functools.lru_cache(maxsize=16)
def _moment_weights(grid: GridSpec, k: int) -> np.ndarray:
    """|v|^k on the grid's velocity nodes, shared per (grid, k) and read-only; inf where it
    overflows."""
    with np.errstate(over="ignore"):
        w = np.abs(grid.v()) ** k
    w.flags.writeable = False
    return w


def moment(d: MixedDistribution, k: int) -> float:
    """k-th absolute moment, of |v|^k: atom sum plus grid quadrature of the density part.
    RosenauError where |v|^k overflows on the grid: the quadrature would be inf or NaN."""
    if k < 0 or int(k) != k:
        raise InvalidParameterError("moment order must be a nonnegative integer")
    weights = _moment_weights(d.grid, k)
    if weights[0] == math.inf:  # |v| is largest at the grid's first node, -L/2
        raise RosenauError(f"|v|^{k} overflows on the grid's |v| <= {d.grid.length / 2:.3g}: "
                           f"the moment is out of double range")
    total = d.grid.dv * float(np.sum(weights * d.density))
    for loc, mass in d.atoms:
        total += mass * abs(loc) ** k
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
    # r log r extends by 0 at r = 0; negative ringing values are clipped, and a NaN stays NaN
    safe = np.maximum(r, 1e-300)
    return np.where(r <= 0.0, 0.0, r * np.log(safe))


def phi_r4(r: np.ndarray) -> np.ndarray:
    return np.asarray(r) ** 4


CONVEX_FUNCTIONALS = {"r2": phi_r2, "rlogr": phi_rlogr, "r4": phi_r4}
