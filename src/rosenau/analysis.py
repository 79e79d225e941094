"""Self-similar rescaling, executable decay bounds, rate fits, growth integrals.

The rescaled solution h(v,t) = V(t)^-1 g(V(t)^-1 v, t) with V(t) = (1+t)^-1/2
freezes the diffusive spreading; in Fourier variables rescaling is the pure
dilation hhat(xi) = ghat(V xi), performed exactly on the analytic closures.
The decay statements become BoundCheck records (lhs, rhs, margin) evaluated
over sweeps, and measured decay series are summarized by log-log rate fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    InvalidDataError,
    InvalidParameterError,
    UnsupportedKernelError,
)
from .kernels import CENTRAL_DIFF, ROSENAU, BackgroundKernel, b_epsilon
from .metrics import (CONVEX_FUNCTIONALS, HalfLineProduct, MetricReport, closure_line,
                      convex_functional, ds_distance, half_frame, l1_norm, moment)
from .spectral import (
    GridSpec,
    SpectralField,
    _exp,
    _require_time,
    dilate,
    field_from_symbol,
    gaussian_field,
    heat_multiplier,
    heat_propagate,
    inverse_transform,
    kinetic_multiplier,
    multiplier_bounded,
    regularized_solution,
    rosenau_propagate,
)

BOUND_SLACK = 1e-12


# ----------------------------------------------------------------------
# initial data presets
# ----------------------------------------------------------------------

def gaussian_initial(grid: GridSpec, second_moment: float = 1.0) -> SpectralField:
    """Centered Gaussian datum with the requested second moment."""
    if not 0.0 < second_moment < math.inf:
        raise InvalidParameterError(f"second moment must be positive and finite, got {second_moment!r}")
    return gaussian_field(grid, second_moment)


def mixture_initial(grid: GridSpec, second_moment: float = 1.0) -> SpectralField:
    """Symmetric two-Gaussian mixture (N(-a, s^2) + N(a, s^2))/2, the non-Gaussian
    admissible datum.

    Zero mean and odd moments by symmetry; m2 = a^2 + s^2 as requested and
    m4 = 3 m2^2 - 2 a^4 = 2 m2^2, strictly between the atomic (m2^2) and Gaussian
    (3 m2^2) extremes, which fixes a^2 = m2 / sqrt(2) and s^2 = m2 - a^2.
    """
    if not 0.0 < second_moment < math.inf:
        raise InvalidParameterError(f"second moment must be positive and finite, got {second_moment!r}")
    a_sq = math.sqrt(0.5) * second_moment
    a, s = math.sqrt(a_sq), math.sqrt(second_moment - a_sq)
    s_var = s * s

    def fn(xi):
        x = np.asarray(xi, dtype=float)
        return np.cos(a * x) * _exp(-0.5 * s_var * x * x)

    def modulus(xi):
        # |cos| <= 1 wherever its argument is finite, and then |cos * e| <= e as rounded; where
        # a x overflows (an outer tail of |xi|) the cosine is NaN
        x = np.asarray(xi, dtype=float)
        return np.where(np.isfinite(a * x), _exp(-0.5 * s_var * x * x), np.inf)

    return field_from_symbol(grid, fn, modulus)


# preset name -> (datum of (grid, m2), its second moment m2 given the kernel's
# sigma^2); "mixture-matched" matches the Gaussian energy 2 sigma^2
INITIAL_PRESETS: Dict[str, Tuple[Callable[[GridSpec, float], SpectralField],
                                 Callable[[float], float]]] = {
    "gaussian-unit": (gaussian_initial, lambda sigma_sq: 1.0),
    "mixture-unit": (mixture_initial, lambda sigma_sq: 1.0),
    "mixture-matched": (mixture_initial, lambda sigma_sq: 2.0 * sigma_sq),
}


def initial_by_name(name: str, grid: GridSpec, sigma_sq: float = 1.0) -> SpectralField:
    """Resolve a preset name to its datum on the grid."""
    if name not in INITIAL_PRESETS:
        raise InvalidParameterError(f"unknown initial datum {name!r}")
    build, second_moment = INITIAL_PRESETS[name]
    return build(grid, second_moment(sigma_sq))


# ----------------------------------------------------------------------
# rescaling
# ----------------------------------------------------------------------

def frame_scale(t: float) -> float:
    """V(t) = (1+t)^-1/2, the frequency dilation of the self-similar frame at time t."""
    _require_time(t)
    return 1.0 / math.sqrt(1.0 + t)


def rescale(f: SpectralField, t: float) -> SpectralField:
    """f in the self-similar frame at time t: hhat(xi) = fhat(V(t) xi)."""
    return dilate(f, frame_scale(t))


# ----------------------------------------------------------------------
# bound checks
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: float
    rhs: float
    params: Dict[str, float] = dataclass_field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def satisfied(self) -> bool:
        return self.lhs <= self.rhs + BOUND_SLACK


def _decay_checks(check: str, kernel: Optional[BackgroundKernel], g0: SpectralField,
                  sigma_sq: float, times: Sequence[float], value: Optional[Callable[[float], float]],
                  rhs: Callable[[float, float], float], label: str,
                  params: Dict[str, float]) -> List[BoundCheck]:
    """lhs = value(t), the check's metric (``CHECKS``) at each time, against rhs(d0, t),
    d0 = value(0); by default value reads the metric off a fresh SweepPoint."""
    metric = CHECKS[check][0]
    read = value or (lambda t: getattr(SweepPoint(kernel, g0, sigma_sq, t), metric).value)
    d0 = read(0.0)
    return [BoundCheck(name=f"{label} t={t:g}", lhs=read(t), rhs=rhs(d0, t), params={**params, "t": t})
            for t in times]


def exact_decay_check(g0: SpectralField, sigma_sq: float, times: Sequence[float],
                      value: Optional[Callable[[float], float]] = None) -> List[BoundCheck]:
    """Self-similar decay of the heat flow: d_2 shrinks at least like (1+t)^-1."""
    return _decay_checks("heat_decay", None, g0, sigma_sq, times, value,
                         lambda d0, t: d0 / (1.0 + t), "heat-decay s=2",
                         {"s": 2.0, "sigma_sq": sigma_sq})


D2_CONSTANTS = {CENTRAL_DIFF: 1.5, ROSENAU: 0.5}


def d2_bound_check(kernel: BackgroundKernel, g0: SpectralField, times: Sequence[float],
                   value: Optional[Callable[[float], float]] = None) -> List[BoundCheck]:
    """Energy-level decay bound for the rescaled kinetic solution.

    rhs combines the exact-decay term (1+t)^-1 d2(g0, omega) with the
    family term sqrt(c sigma^2 / 2) sigma eps sqrt(t)/(1+t), c = 3 for the
    central-difference background and 1 for the exponential one; like d2,
    both terms scale as sigma^2 when the datum scales with sigma.
    """
    if kernel.family not in D2_CONSTANTS:
        raise InvalidParameterError(f"no d2 bound constant for family {kernel.family!r}")
    c = math.sqrt(D2_CONSTANTS[kernel.family] * kernel.sigma_sq) * kernel.sigma
    eps = kernel.epsilon
    return _decay_checks("d2_bound", kernel, g0, kernel.sigma_sq, times, value,
                         lambda d0, t: d0 / (1.0 + t) + c * eps * math.sqrt(t) / (1.0 + t),
                         f"d2-bound {kernel.family} eps={eps:g}",
                         {"eps": eps, "sigma": kernel.sigma})


D3_PREFACTOR = 13.0 * math.sqrt(2.0) / 24.0


def d3_bound_check(kernel: BackgroundKernel, g0: SpectralField, times: Sequence[float],
                   value: Optional[Callable[[float], float]] = None) -> List[BoundCheck]:
    """Fourth-moment-level decay bound with the B_eps^(3/4) suboptimal term.

    B_eps = 2 m4(M_eps)/eps^2 is the kernel's exact fourth moment (an atom
    sum or the exponential density's 4! (eps sigma)^4); g0 must match the
    Gaussian moments through order two or the d3 distances diverge.
    """
    b_eps = b_epsilon(kernel)

    def rhs(d0: float, t: float) -> float:
        try:
            decay = (1.0 + t) ** 1.5
        except OverflowError:  # 1 + t past about 3e205: the float power raises, d0 / inf is 0
            decay = math.inf
        return d0 / decay + D3_PREFACTOR * b_eps**0.75 * (math.sqrt(t) / (1.0 + t)) ** 1.5

    return _decay_checks("d3_bound", kernel, g0, kernel.sigma_sq, times, value, rhs,
                         f"d3-bound {kernel.family} eps={kernel.epsilon:g}",
                         {"eps": kernel.epsilon, "b_eps": b_eps})


# ----------------------------------------------------------------------
# rate fitting
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    """Power-law fit value ~ prefactor (1+t)^exponent on a time window."""

    exponent: float
    prefactor: float
    r_squared: float
    window: Tuple[float, float]
    n_points: int


def rate_fit(series: Sequence[Tuple[float, float]], window: Tuple[float, float] = (5.0, 100.0)) -> RateFit:
    """Least squares on (log(1+t), log value) restricted to the window.

    The default window skips the early transient layer exp(-lam t/eps^2)
    that pollutes small-t fits.
    """
    lo, hi = window
    pts = [(t, v) for t, v in series if lo <= t <= hi]
    if len(pts) < 5:
        raise InvalidDataError(f"need at least 5 points in window [{lo:g}, {hi:g}], got {len(pts)}")
    if any(v <= 0 for _, v in pts):
        raise InvalidDataError("rate fit requires positive values")
    x = np.log1p([t for t, _ in pts])
    y = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    sst = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if sst == 0.0 else 1.0 - float(np.sum(resid**2)) / sst
    return RateFit(exponent=float(slope), prefactor=float(np.exp(intercept)),
                   r_squared=r2, window=(lo, hi), n_points=len(pts))


# ----------------------------------------------------------------------
# sweep-point metrics and checks
# ----------------------------------------------------------------------

def l1_distance(f1: SpectralField, f2: SpectralField) -> float:
    """||f1 - f2||_L1 of two fields on one grid, inverted as one difference."""
    return l1_norm(inverse_transform(SpectralField(f1.grid, f1.values - f2.values)))


class SweepPoint:
    """Everything one (eps, t) sweep point computes, each entry built at most once.

    Entries of ``REGISTRY`` keyed by t alone (z = V(t) xi, ``datum`` = g0 at z as a
    ``metrics.HalfLine`` with its ``live`` span and ``envelope``, filled on demand where g0 has
    a modulus, ``heat``, ``h_heat``, ``ref``, ``l1_heat_gap``, ``d2_selfsim_heat``) live in
    ``shared``, one memo for every eps at t; the others (``sol``,
    ``reg``, ``h_kin``, ``density`` and the kinetic metrics) live on the point.
    Builders look names up when they run, so tracers that rebind them see
    every call.
    """

    def __init__(self, kernel: Optional[BackgroundKernel], g0: SpectralField,
                 sigma_sq: float, t: float, shared: Optional[dict] = None):
        self.kernel, self.g0, self.sigma_sq, self.t = kernel, g0, sigma_sq, t
        self.shared = {} if shared is None else shared

    def __getattr__(self, name: str):  # only reached for entries not on the point yet
        if name not in REGISTRY:
            raise AttributeError(name)
        by_t, build = REGISTRY[name]
        store = self.shared if by_t else self.__dict__
        if name not in store:
            store[name] = build(self)
        return store[name]

    @property
    def live(self) -> slice:
        """The datum's live span, ``datum.live``."""
        return self.datum.live

    def rescaled(self, mult: Callable[[np.ndarray], np.ndarray],
                 kernel: Optional[BackgroundKernel] = None) -> HalfLineProduct:
        """datum * mult, mult the kinetic multiplier of kernel at t (the heat multiplier where
        kernel is None), filled on demand; it carries the datum's envelope as its own where
        mult is certified to lie in [0, 1] on the datum's live span.  Where that span may be
        wider than the nonzero one and the certificate fails, the span is narrowed to the
        nonzero one and certified again, so an uncertified mult meets no extra sample."""
        datum = self.datum

        def bounded() -> bool:
            live = datum.live
            reach = abs(float(self.z[live.start])) if live.start < live.stop else 0.0
            return multiplier_bounded(kernel, self.t, reach)

        certified = bounded() or (datum.narrow() and bounded())
        return HalfLineProduct(datum, self.z, datum.live, mult,
                               datum.envelope if certified else None)


def _regularized(p: SweepPoint) -> SpectralField:
    if p.kernel.family not in REGULARIZED_FAMILIES:
        raise UnsupportedKernelError("the regularized solution has a density only "
                                     "for the exponential family")
    return regularized_solution(p.g0, p.kernel, p.t)


# field -> (keyed by t alone, builder of a SweepPoint); z, datum, h_heat, ref, h_kin: xi <= 0
FIELDS: Dict[str, Tuple[bool, Callable[[SweepPoint], object]]] = {
    "z": (True, lambda p: frame_scale(p.t) * half_frame(p.g0.grid, p.sigma_sq)[0]),
    "datum": (True, lambda p: closure_line(p.g0, p.z)),
    "heat": (True, lambda p: heat_propagate(p.g0, p.sigma_sq, p.t)),
    "h_heat": (True, lambda p: p.rescaled(heat_multiplier(p.sigma_sq, p.t))),
    "ref": (True, lambda p: half_frame(p.g0.grid, p.sigma_sq)[1]),
    "sol": (False, lambda p: rosenau_propagate(p.g0, p.kernel, p.t)),
    "reg": (False, _regularized),
    "h_kin": (False, lambda p: p.rescaled(kinetic_multiplier(p.kernel, p.t), p.kernel)),
    "density": (False, lambda p: inverse_transform(p.sol)),
}

# metric a config may ask for -> (keyed by t alone, MetricReport of a SweepPoint)
METRICS: Dict[str, Tuple[bool, Callable[[SweepPoint], MetricReport]]] = {
    "mass": (False, lambda p: MetricReport(p.sol.mass, 0.0)),
    "m2": (False, lambda p: MetricReport(moment(p.density, 2), 0.0)),
    "m4": (False, lambda p: MetricReport(moment(p.density, 4), 0.0)),
    "d2_selfsim": (False, lambda p: ds_distance(p.h_kin, p.ref, 2.0)),
    "d3_selfsim": (False, lambda p: ds_distance(p.h_kin, p.ref, 3.0)),
    "d2_gap": (False, lambda p: ds_distance(p.h_kin, p.h_heat, 2.0)),
    "d2_selfsim_heat": (True, lambda p: ds_distance(p.h_heat, p.ref, 2.0)),
    "l1_reg_gap": (False, lambda p: MetricReport(l1_distance(p.heat, p.reg), 0.0)),
    "l1_heat_gap": (True, lambda p: MetricReport(l1_distance(p.heat, field_from_symbol(
        p.g0.grid, heat_multiplier(p.sigma_sq, p.t))), 0.0)),
    "entropy_reg": (False, lambda p: MetricReport(convex_functional(
        inverse_transform(p.reg), CONVEX_FUNCTIONALS["rlogr"]), 0.0)),
}
REGISTRY = {**FIELDS, **METRICS}

# the regularized solution has a density only for these kernel families
REGULARIZED_FAMILIES = (ROSENAU,)
REGULARIZED_METRICS = ("l1_reg_gap", "entropy_reg")
# the metrics that read ``density``, the kinetic solution inverted as a density alone
DENSITY_METRICS = ("m2", "m4")

# check name -> (the metric that is its lhs, and at t = 0 its d0; checks of (kernel, g0, times,
# reader of that metric at t)); a check whose metric is keyed by t alone runs once, at the first eps
CHECKS: Dict[str, Tuple[str, Callable[..., List[BoundCheck]]]] = {
    "d2_bound": ("d2_selfsim", lambda *args: d2_bound_check(*args)),
    "d3_bound": ("d3_selfsim", lambda *args: d3_bound_check(*args)),
    "heat_decay": ("d2_selfsim_heat", lambda kernel, g0, times, value: exact_decay_check(
        g0, kernel.sigma_sq, times, value)),
}


# ----------------------------------------------------------------------
# Sobolev-growth integral of the regularized kernel
# ----------------------------------------------------------------------

# the integral stops here; the part beyond, ~ e^-2t t^2 xi^(2s-3), is 4e-10 of I_s at s = 0.9,
# t = 1 and at most about 1.3e-8 of it (s -> 1, t -> 0)
_APPENDIX_XI_MAX = 1e8
# up to here t xi^2, (1+t)^(s+1/2) and I_s(t) all stay normal doubles
APPENDIX_T_MAX = 1e200
# the 16-point Gauss-Legendre rule on [-1, 1], bit for bit as numpy.polynomial.legendre.leggauss(16)
# gives it; the rule is symmetric, so it is stated by its positive nodes, each with its weight
_GL_HALF = np.array([
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
])
_GL_NODES = np.concatenate((-_GL_HALF[::-1, 0], _GL_HALF[:, 0]))
_GL_WEIGHTS = np.concatenate((_GL_HALF[::-1, 1], _GL_HALF[:, 1]))
_GL_NODES.flags.writeable = _GL_WEIGHTS.flags.writeable = False


@dataclass(frozen=True)
class AppendixReport:
    s: float
    t: float
    integral: float          # I_s(t)
    value: float             # (1+t)^(s+1/2) sqrt(I_s)
    normalized: float        # value / (1+t)^0.1
    value_balanced: float    # (1+t)^((2s+1)/4) sqrt(I_s); stays bounded in t


def _i_s_integral(s: float, t: float, panels: int) -> float:
    """I_s(t) = int |xi|^2s [exp(-t xi^2/(1+xi^2)) - exp(-t)]^2 dxi.

    Composite Gauss-Legendre on geometrically graded panels from below the
    diffusive scale 1/sqrt(1+t) out to _APPENDIX_XI_MAX.
    """
    if t == 0.0:
        return 0.0
    w = 1.0 / math.sqrt(1.0 + t)
    lo = w / 16.0
    breaks = np.concatenate((
        [0.0],
        np.geomspace(lo, _APPENDIX_XI_MAX, panels),
    ))
    a = breaks[:-1][:, None]
    b = breaks[1:][:, None]
    x = 0.5 * (b - a) * _GL_NODES[None, :] + 0.5 * (b + a)
    jac = 0.5 * (b - a)
    expt = math.exp(-t)
    x2 = x * x
    bracket = np.exp(-t * x2 / (1.0 + x2)) - expt
    integrand = np.abs(x) ** (2.0 * s) * bracket**2
    return 2.0 * float(np.sum(_GL_WEIGHTS[None, :] * jac * integrand))


def appendix_report(s: float, t: float, panels: int = 128) -> AppendixReport:
    """Growth diagnostic of the regularized-kernel Sobolev norm at eps = sigma = 1.

    ``value`` applies the full (1+t)^(s+1/2) prefactor to sqrt(I_s) and
    grows like t^((2s+1)/4); ``value_balanced`` applies the prefactor to
    the squared norm before the square root and tends to a constant.  Both
    are reported; the normalized column divides ``value`` by (1+t)^0.1.
    """
    if not (0.0 < s < 1.0):
        raise InvalidParameterError(f"order s must lie in (0, 1), got {s} (integral "
                                    "treated as divergent outside the contract range)")
    if not (0.0 <= t <= APPENDIX_T_MAX):
        raise InvalidParameterError(f"time must lie in [0, {APPENDIX_T_MAX:g}], got {t}")
    if panels < 2:
        raise InvalidParameterError(f"panels must be at least 2, got {panels}")
    integral = _i_s_integral(s, t, panels)
    root = math.sqrt(max(integral, 0.0))
    value = (1.0 + t) ** (s + 0.5) * root
    balanced = (1.0 + t) ** (0.5 * (s + 0.5)) * root
    return AppendixReport(
        s=s, t=t, integral=integral, value=value,
        normalized=value / (1.0 + t) ** 0.1,
        value_balanced=balanced)

