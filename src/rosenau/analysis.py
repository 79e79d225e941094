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
from .metrics import CONVEX_FUNCTIONALS, convex_functional, ds_distance, lp_norm, moment
from .spectral import (
    GridSpec,
    SpectralField,
    delta_field,
    dilate,
    field_from_symbol,
    gaussian_field,
    gaussian_reference,
    heat_propagate,
    inverse_transform,
    regularized_propagator,
    regularized_solution,
    require_grid_contains,
    rosenau_propagate,
)

BOUND_SLACK = 1e-12


# ----------------------------------------------------------------------
# initial data presets
# ----------------------------------------------------------------------

def gaussian_initial(grid: GridSpec, second_moment: float = 1.0) -> SpectralField:
    """Centered Gaussian datum with the requested second moment."""
    if second_moment <= 0:
        raise InvalidParameterError("second moment must be positive")
    return gaussian_field(grid, second_moment)


def solve_mixture_params(second_moment: float, fourth_moment: float) -> Tuple[float, float]:
    """Centers +-a and width s of the two-Gaussian mixture matching (m2, m4).

    For the symmetric mixture (N(-a, s^2) + N(a, s^2))/2 the fourth moment
    is a decreasing function of a^2 at fixed m2, so a bisection pins it.
    Attainable targets satisfy m2^2 <= m4 <= 3 m2^2 (pure atoms to pure
    Gaussian).
    """
    e = second_moment
    if e <= 0:
        raise InvalidParameterError("second moment must be positive")
    if not (e**2 <= fourth_moment <= 3.0 * e**2):
        raise InvalidParameterError(
            f"fourth moment {fourth_moment:g} outside attainable [{e**2:g}, {3 * e**2:g}]"
        )

    def m4_of(x):  # x = a^2
        return 3.0 * e**2 - 2.0 * x**2

    lo, hi = 0.0, e
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if m4_of(mid) > fourth_moment:
            lo = mid
        else:
            hi = mid
    a_sq = 0.5 * (lo + hi)
    s_sq = e - a_sq
    return math.sqrt(a_sq), math.sqrt(max(s_sq, 0.0))


def mixture_initial(grid: GridSpec, second_moment: float = 1.0,
                    fourth_moment: Optional[float] = None) -> SpectralField:
    """Symmetric two-Gaussian mixture, the non-Gaussian admissible datum.

    Zero mean and odd moments by symmetry; second moment as requested;
    fourth moment defaults to 2 m2^2, strictly between the atomic and
    Gaussian extremes.
    """
    if fourth_moment is None:
        fourth_moment = 2.0 * second_moment**2
    a, s = solve_mixture_params(second_moment, fourth_moment)
    s_var = s * s

    def fn(xi):
        x = np.asarray(xi, dtype=float)
        return (np.cos(a * x) * np.exp(-0.5 * s_var * x * x)).astype(complex)

    return field_from_symbol(grid, fn)


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

@dataclass(frozen=True)
class RescaledSolution:
    """Solution field viewed in the self-similar frame at time t."""

    base: SpectralField
    t: float

    @property
    def scale(self) -> float:
        return 1.0 / math.sqrt(1.0 + self.t)

    @property
    def field(self) -> SpectralField:
        return dilate(self.base, self.scale)


def rescale(f: SpectralField, t: float) -> RescaledSolution:
    if t < 0:
        raise InvalidParameterError("time must be nonnegative")
    return RescaledSolution(base=f, t=t)


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


def _decay_checks(g0: SpectralField, sigma_sq: float, s: float, times: Sequence[float],
                  solve: Callable[[float], SpectralField], rhs: Callable[[float, float], float],
                  label: str, params: Dict[str, float]) -> List[BoundCheck]:
    """d_s(rescaled solve(t), Gaussian profile) against rhs(d_s(g0, profile), t)."""
    ref = gaussian_reference(g0.grid, sigma_sq)
    d0 = ds_distance(g0, ref, s).value
    return [BoundCheck(name=f"{label} t={t:g}",
                       lhs=ds_distance(rescale(solve(t), t).field, ref, s).value,
                       rhs=rhs(d0, t), params={**params, "t": t})
            for t in times]


def exact_decay_check(g0: SpectralField, s: float, sigma_sq: float,
                      times: Sequence[float]) -> List[BoundCheck]:
    """Self-similar decay of the heat flow: d_s shrinks at least like (1+t)^-s/2."""
    return _decay_checks(g0, sigma_sq, s, times, lambda t: heat_propagate(g0, sigma_sq, t),
                         lambda d0, t: d0 / (1.0 + t) ** (0.5 * s),
                         f"heat-decay s={s:g}", {"s": s, "sigma_sq": sigma_sq})


_D2_CONSTANTS = {CENTRAL_DIFF: 1.5, ROSENAU: 0.5}


def d2_bound_check(kernel: BackgroundKernel, g0: SpectralField,
                   times: Sequence[float]) -> List[BoundCheck]:
    """Energy-level decay bound for the rescaled kinetic solution.

    rhs combines the exact-decay term (1+t)^-1 d2(g0, omega) with the
    family constant sqrt(c sigma_d^2 / 2) eps sqrt(t)/(1+t), c = 3 for the
    central-difference background and 1 for the exponential one.
    """
    if kernel.family not in _D2_CONSTANTS:
        raise InvalidParameterError(f"no d2 bound constant for family {kernel.family!r}")
    c = math.sqrt(_D2_CONSTANTS[kernel.family] * kernel.sigma_sq)
    eps = kernel.epsilon
    return _decay_checks(g0, kernel.sigma_sq, 2.0, times,
                         lambda t: rosenau_propagate(g0, kernel, t),
                         lambda d0, t: d0 / (1.0 + t) + c * eps * math.sqrt(t) / (1.0 + t),
                         f"d2-bound {kernel.family} eps={eps:g}",
                         {"eps": eps, "sigma": kernel.sigma})


D3_PREFACTOR = 13.0 * math.sqrt(2.0) / 24.0


def d3_bound_check(kernel: BackgroundKernel, g0: SpectralField,
                   times: Sequence[float]) -> List[BoundCheck]:
    """Fourth-moment-level decay bound with the B_eps^(3/4) suboptimal term.

    B_eps = 2 m4(M_eps)/eps^2 is computed from the kernel (atom sums or
    quadrature), not from any closed-form claim; g0 must match the Gaussian
    moments through order two or the d3 distances diverge.
    """
    b_eps = b_epsilon(kernel)
    return _decay_checks(
        g0, kernel.sigma_sq, 3.0, times, lambda t: rosenau_propagate(g0, kernel, t),
        lambda d0, t: d0 / (1.0 + t) ** 1.5 + D3_PREFACTOR * b_eps**0.75 * (math.sqrt(t) / (1.0 + t)) ** 1.5,
        f"d3-bound {kernel.family} eps={kernel.epsilon:g}", {"eps": kernel.epsilon, "b_eps": b_eps})


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
# strong L1 convergence of the regularized solution
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class L1Record:
    t: float
    gap: float              # ||g(t) - g_reg(t)||_L1
    propagator_gap: float   # ||Omega(t) - P_reg(t)||_L1, the convolution bound


def l1_distance(f1: SpectralField, f2: SpectralField) -> float:
    """||f1 - f2||_L1 of two fields on one grid, inverted as one difference."""
    return lp_norm(inverse_transform(SpectralField(f1.grid, f1.values - f2.values)), 1)


def l1_convergence_series(kernel: BackgroundKernel, g0: SpectralField,
                          times: Sequence[float]) -> List[L1Record]:
    """L1 gap between the heat solution and the regularized kinetic solution.

    Only the exponential family qualifies: its regularized propagator has a
    density, while the central-difference one stays atomic.  Each record
    carries the data-independent propagator gap, which dominates the data
    gap by Young's inequality.
    """
    if kernel.family != ROSENAU:
        raise UnsupportedKernelError("the regularized solution has a density only "
                                     "for the exponential family")
    grid = g0.grid
    sigma_sq = kernel.sigma_sq
    m2_0 = moment(inverse_transform(g0), 2)
    out = []
    for t in sorted(times):
        require_grid_contains(grid, m2_0 + 2.0 * sigma_sq * t, context=f"{kernel.label()} t={t:g}")
        gap = l1_distance(heat_propagate(g0, sigma_sq, t), regularized_solution(g0, kernel, t))
        pgap = l1_distance(heat_propagate(delta_field(grid), sigma_sq, t),
                           regularized_propagator(kernel, t, grid))
        out.append(L1Record(t=float(t), gap=gap, propagator_gap=pgap))
    return out


def heat_l1_series(g0: SpectralField, sigma_sq: float,
                   times: Sequence[float]) -> List[Tuple[float, float]]:
    """||g(t) - Omega(t)||_L1 for the heat flow, the classical baseline."""
    grid = g0.grid
    m2_0 = moment(inverse_transform(g0), 2)
    out = []
    for t in sorted(times):
        require_grid_contains(grid, m2_0 + 2.0 * sigma_sq * t, context=f"heat t={t:g}")
        out.append((float(t), l1_distance(heat_propagate(g0, sigma_sq, t),
                                          heat_propagate(delta_field(grid), sigma_sq, t))))
    return out


# ----------------------------------------------------------------------
# sweep-point metrics and checks
# ----------------------------------------------------------------------

class SweepPoint:
    """The fields one (eps, t) sweep point compares, each built at most once.

    A field is built by its _POINT_FIELDS entry on first access and then
    stored.  The entries look module-level names up when they run, so
    tracers that rebind those names see every call.
    """

    def __init__(self, kernel: BackgroundKernel, g0: SpectralField, t: float):
        self.kernel, self.g0, self.t = kernel, g0, t

    def __getattr__(self, name: str):  # only reached for fields not built yet
        if name not in _POINT_FIELDS:
            raise AttributeError(name)
        value = _POINT_FIELDS[name](self)
        setattr(self, name, value)
        return value


_POINT_FIELDS: Dict[str, Callable[[SweepPoint], object]] = {
    "sol": lambda p: rosenau_propagate(p.g0, p.kernel, p.t),
    "heat": lambda p: heat_propagate(p.g0, p.kernel.sigma_sq, p.t),
    "reg": lambda p: regularized_solution(p.g0, p.kernel, p.t),
    "h_kin": lambda p: rescale(p.sol, p.t).field,
    "h_heat": lambda p: rescale(p.heat, p.t).field,
    "ref": lambda p: gaussian_reference(p.g0.grid, p.kernel.sigma_sq),
    "density": lambda p: inverse_transform(p.sol),
}


def _ds(f1: SpectralField, f2: SpectralField, s: float) -> Tuple[float, float]:
    rep = ds_distance(f1, f2, s)
    return rep.value, rep.argsup


# metric name -> (value, argsup) of one SweepPoint
METRICS: Dict[str, Callable[[SweepPoint], Tuple[float, float]]] = {
    "mass": lambda p: (p.sol.mass, 0.0),
    "m2": lambda p: (moment(p.density, 2), 0.0),
    "m4": lambda p: (moment(p.density, 4), 0.0),
    "d2_selfsim": lambda p: _ds(p.h_kin, p.ref, 2.0),
    "d3_selfsim": lambda p: _ds(p.h_kin, p.ref, 3.0),
    "d2_gap": lambda p: _ds(p.h_kin, p.h_heat, 2.0),
    "d2_selfsim_heat": lambda p: _ds(p.h_heat, p.ref, 2.0),
    "l1_reg_gap": lambda p: (l1_distance(p.heat, p.reg), 0.0),
    "l1_heat_gap": lambda p: (l1_distance(p.heat, heat_propagate(
        delta_field(p.g0.grid), p.kernel.sigma_sq, p.t)), 0.0),
    "entropy_reg": lambda p: (convex_functional(inverse_transform(p.reg),
                                                CONVEX_FUNCTIONALS["rlogr"]), 0.0),
}

# check name -> (runs at every eps, checks of (kernel, g0, times)); the heat
# flow does not depend on eps, so heat_decay runs once, at the first eps
CHECKS: Dict[str, Tuple[bool, Callable[..., List[BoundCheck]]]] = {
    "d2_bound": (True, lambda kernel, g0, times: d2_bound_check(kernel, g0, times)),
    "d3_bound": (True, lambda kernel, g0, times: d3_bound_check(kernel, g0, times)),
    "heat_decay": (False, lambda kernel, g0, times: exact_decay_check(
        g0, 2.0, kernel.sigma_sq, times)),
}


# ----------------------------------------------------------------------
# Sobolev-growth integral of the regularized kernel
# ----------------------------------------------------------------------

_APPENDIX_XI_MAX = 1e8  # beyond this the bracket is zero to double precision
_GL_NODES = 16


@dataclass(frozen=True)
class AppendixReport:
    s: float
    t: float
    integral: float          # I_s(t)
    value: float             # (1+t)^(s+1/2) sqrt(I_s)
    normalized: float        # value / (1+t)^0.1
    value_balanced: float    # (1+t)^((2s+1)/4) sqrt(I_s); stays bounded in t
    tail_bound: float
    split_point: float
    panels: int


def _i_s_integral(s: float, t: float, panels: int) -> Tuple[float, float]:
    """I_s(t) = int |xi|^2s [exp(-t xi^2/(1+xi^2)) - exp(-t)]^2 dxi.

    Composite Gauss-Legendre on geometrically graded panels from below the
    diffusive scale 1/sqrt(1+t) out to the split point, plus an analytic
    bound on the power-law remainder.  Returns (integral, tail_bound).
    """
    if t == 0.0:
        return 0.0, 0.0
    w = 1.0 / math.sqrt(1.0 + t)
    lo = w / 16.0
    breaks = np.concatenate((
        [0.0],
        np.geomspace(lo, _APPENDIX_XI_MAX, panels),
    ))
    nodes, weights = np.polynomial.legendre.leggauss(_GL_NODES)
    a = breaks[:-1][:, None]
    b = breaks[1:][:, None]
    x = 0.5 * (b - a) * nodes[None, :] + 0.5 * (b + a)
    jac = 0.5 * (b - a)
    expt = math.exp(-t)
    x2 = x * x
    bracket = np.exp(-t * x2 / (1.0 + x2)) - expt
    integrand = np.abs(x) ** (2.0 * s) * bracket**2
    integral = 2.0 * float(np.sum(weights[None, :] * jac * integrand))
    # remainder: bracket <= exp(-t) (t/xi^2) e^(t/xi^2) beyond the split
    xi_c = _APPENDIX_XI_MAX
    tail = 2.0 * expt**2 * t**2 * math.exp(2.0 * t / xi_c**2) * xi_c ** (2.0 * s - 3.0) / (3.0 - 2.0 * s)
    return integral, tail


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
    if t < 0:
        raise InvalidParameterError("time must be nonnegative")
    integral, tail = _i_s_integral(s, t, panels)
    root = math.sqrt(max(integral, 0.0))
    value = (1.0 + t) ** (s + 0.5) * root
    balanced = (1.0 + t) ** (0.5 * (s + 0.5)) * root
    return AppendixReport(
        s=s, t=t, integral=integral, value=value,
        normalized=value / (1.0 + t) ** 0.1,
        value_balanced=balanced,
        tail_bound=tail, split_point=_APPENDIX_XI_MAX, panels=panels)


def appendix_bs(kernel: BackgroundKernel, s: float, t: float, panels: int = 128) -> float:
    """B_s(t) = (1+t)^(s+1/2) I_s(t)^(1/2) for the unit exponential kernel."""
    if kernel.family != ROSENAU or abs(kernel.epsilon - 1.0) > 1e-12 or \
            abs((kernel.sigma or 0.0) - 1.0) > 1e-12:
        raise InvalidParameterError("the growth integral is normalized to the "
                                    "exponential kernel with eps = sigma = 1")
    return appendix_report(s, t, panels).value
