"""Conjugate grids, spectral fields, and the exact Fourier-space propagators.

Sign convention, shared package-wide:  fhat(xi) = integral of exp(-i xi v) f(v) dv.
A SpectralField samples fhat on the centered frequency grid of a GridSpec;
a MixedDistribution is the physical-space counterpart, a uniform-grid density
plus a finite list of weighted Dirac atoms.  The forward transform adds each
atom exactly, but ``inverse_transform`` inverts the whole field as a density.
A datum's atoms keep e^-mu of their mass under the exponential kernel and all
of it under an atomic kernel, whose fundamental solution is purely atomic; the
inverse FFT would spread that mass over the grid.  So the runner computes no
density where the atoms keep more than LEAK_TOL.

All operations are pure (input -> new output) and thread-safe.
"""

from __future__ import annotations

import ctypes
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import (
    GridTooSmallError,
    InvalidParameterError,
    ResampleError,
    SymmetryError,
)
from .kernels import BackgroundKernel, generator_symbol

Array = np.ndarray

DEFAULT_GRID_N = 4096
LEAK_TOL = 1e-12
SYM_TOL = 1e-9  # largest Hermitian defect, relative to the peak, that inverse_transform accepts
EXP_UNDERFLOW = -746.0  # exp(y) rounds to +0.0 for every y below log(2^-1075) = -745.13


@dataclass(frozen=True)
class GridSpec:
    """Uniform velocity grid on [-L/2, L/2) with its conjugate frequency grid."""

    length: float
    points: int

    def __post_init__(self):
        if self.length <= 0:
            raise InvalidParameterError(f"grid length must be positive, got {self.length}")
        if self.points < 16 or self.points & (self.points - 1):  # not a power of two
            raise InvalidParameterError(
                f"grid points must be a power of two >= 16, got {self.points}"
            )

    @property
    def dv(self) -> float:
        return self.length / self.points

    @property
    def dxi(self) -> float:
        return 2.0 * math.pi / self.length

    @property
    def nyquist(self) -> float:
        return math.pi / self.dv

    def v(self) -> Array:
        """Velocity nodes, shared and read-only: copy before writing."""
        return _nodes(self, "v")

    def xi(self) -> Array:
        """Frequency nodes, shared and read-only: copy before writing."""
        return _nodes(self, "xi")


@functools.lru_cache(maxsize=16)
def _nodes(grid: GridSpec, axis: str) -> Array:
    step = grid.dv if axis == "v" else grid.dxi
    nodes = step * (np.arange(grid.points) - grid.points // 2)
    nodes.flags.writeable = False
    return nodes


def default_grid(sigma: float, t_max: float, n: Optional[int] = None,
                 m2: float = 1.0) -> GridSpec:
    """Grid sized so Gaussian tails at L/2 stay far below the leak tolerance.

    L = 40 max(sigma, sqrt(m2)) sqrt(1+t_max); N defaults to 4096.
    """
    length = 40.0 * max(sigma, math.sqrt(m2)) * math.sqrt(1.0 + t_max)
    return GridSpec(length=length, points=DEFAULT_GRID_N if n is None else n)


@dataclass(frozen=True)
class SpectralField:
    """Sampled Fourier transform on a GridSpec.

    ``values`` keep the dtype their source gives, as float64 or complex128: real for
    the presets and every multiplier of them (mirror-symmetric laws have real, even
    transforms), complex for ``forward_transform`` of sampled data.
    ``analytic``, when present, evaluates the same transform exactly off the
    grid: a closed form for the presets, the chirp-z sum of ``forward_transform``
    for sampled data.  Propagators compose it so that rescaling stays exact.
    ``modulus``, when present, is a closure m certifying the analytic one: |analytic(xi)| <=
    m(xi) as computed, m does not increase with |xi| short of an outer tail where it is inf,
    and it is inf wherever analytic(xi) might not be a number.  ``gaussian_field`` and
    ``mixture_initial`` set it; every other field, propagated, dilated or sampled, has None.
    The sweep evaluates a datum with a modulus only out to where its d_s scans reach.
    """

    grid: GridSpec
    values: Array
    analytic: Optional[Callable[[Array], Array]] = None
    modulus: Optional[Callable[[Array], Array]] = None

    def __post_init__(self):
        vals = np.asarray(self.values)
        vals = vals.astype(complex if np.iscomplexobj(vals) else float, copy=False)
        if vals.shape != (self.grid.points,):
            raise InvalidParameterError(
                f"values shape {vals.shape} does not match grid ({self.grid.points},)"
            )
        object.__setattr__(self, "values", vals)

    @property
    def mass(self) -> float:
        """Value at xi = 0 (total mass for probability data)."""
        return float(self.values[self.grid.points // 2].real)

    def at(self, xi) -> Array:
        """Evaluate at arbitrary frequencies through the closure, exactly in its dtype;
        a field without one raises ResampleError."""
        if self.analytic is None:
            raise ResampleError("the field has no closure to evaluate off its grid")
        return np.asarray(self.analytic(xi))

    @functools.cached_property  # found once per field, read by every _multiply of it
    def _span(self) -> slice:
        return _live(self.values)


@dataclass(frozen=True)
class MixedDistribution:
    """Finite measure split into a uniform-grid density and weighted atoms."""

    grid: GridSpec
    density: Array
    atoms: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self):
        dens = np.asarray(self.density, dtype=float)
        if dens.shape != (self.grid.points,):
            raise InvalidParameterError(
                f"density shape {dens.shape} does not match grid ({self.grid.points},)"
            )
        object.__setattr__(self, "density", dens)
        half = self.grid.length / 2.0
        for loc, w in self.atoms:
            if not (-half <= loc < half):
                raise InvalidParameterError(
                    f"atom at {loc:g} outside the grid domain [-{half:g}, {half:g})"
                )
            if w < 0:
                raise InvalidParameterError(f"atom weight {w:g} is negative")

    @property
    def total_mass(self) -> float:
        return float(self.grid.dv * np.sum(self.density) + sum(w for _, w in self.atoms))


def field_from_symbol(grid: GridSpec, fn: Callable[[Array], Array],
                      modulus: Optional[Callable[[Array], Array]] = None) -> SpectralField:
    """Sample an analytic transform on the grid, keeping the closure and its modulus."""
    return SpectralField(grid=grid, values=fn(grid.xi()), analytic=fn, modulus=modulus)


def delta_field(grid: GridSpec) -> SpectralField:
    """Transform of the unit Dirac mass at the origin (constant 1)."""
    return field_from_symbol(grid, lambda xi: np.ones_like(np.asarray(xi, dtype=float)))


def gaussian_field(grid: GridSpec, variance: float) -> SpectralField:
    """Transform of a centered normal density with the given variance."""
    if variance < 0:
        raise InvalidParameterError("variance must be nonnegative")

    def fn(xi):
        x = np.asarray(xi, dtype=float)
        return _exp(-0.5 * variance * x * x)

    return field_from_symbol(grid, fn, fn)  # its own modulus: positive, and falls with |xi|


def gaussian_reference(grid: GridSpec, sigma_sq: float) -> SpectralField:
    """Transform exp(-sigma_sq xi^2) of the time-one heat kernel profile."""
    return gaussian_field(grid, 2.0 * sigma_sq)


# ----------------------------------------------------------------------
# transforms
# ----------------------------------------------------------------------

def forward_transform(d: MixedDistribution) -> SpectralField:
    """Transform of the density by FFT plus the exact atomic sum, with the closure
    ``_measure_at`` that evaluates the same sum exactly off the grid."""
    vals = d.grid.dv * np.fft.fftshift(np.fft.fft(np.fft.ifftshift(d.density.astype(complex))))
    return SpectralField(d.grid, _add_atoms(vals, d.atoms, d.grid.xi()),
                         functools.partial(_measure_at, d))


def _add_atoms(vals: Array, atoms, xi: Array) -> Array:
    return sum((w * np.exp(-1j * xi * loc) for loc, w in atoms), vals)  # in order, atom by atom


def _phase(rate: float, n: Array) -> Array:
    """exp(-2 pi i rate n) for integer-valued n, its turns rate * n reduced mod 1 exactly: rate
    is split into pieces short enough that each piece times every |n| is exact in 53 bits."""
    bits = 53 - int(np.max(np.abs(n), initial=1.0)).bit_length()
    turns = np.zeros(np.shape(n))
    while rate:
        exponent = math.frexp(rate)[1]
        piece = math.ldexp(math.trunc(math.ldexp(rate, bits - exponent)), exponent - bits)
        turns += np.fmod(piece * n, 1.0)
        rate -= piece
    return np.exp(-2j * math.pi * turns)


def _measure_at(d: MixedDistribution, xi) -> Array:
    """d's transform, sum dv f_j exp(-i xi v_j) plus its atoms, exactly at targets xi = x0 + kh.

    With v = n dv the phase is a n + 2c kn turns (a = x0 dv / 2pi, c = h dv / 4pi); Bluestein's
    2kn = k^2 + n^2 - (k - n)^2 makes the sum over the N nodes one FFT convolution of length
    >= N + M - 1 (the chirp-z transform).  Targets off an arithmetic progression, or beyond the band where
    the sum is periodic and would alias, raise ResampleError.
    """
    grid, z = d.grid, np.asarray(xi, dtype=float).ravel()
    k, peak = np.arange(z.size, dtype=float), np.max(np.abs(z))
    step = (z[-1] - z[0]) / max(z.size - 1, 1)
    if not np.all(np.abs(z - (z[0] + step * k)) <= 8.0 * np.spacing(peak)):  # NaN fails too
        raise ResampleError("off-grid targets must form an arithmetic progression")
    if peak > grid.nyquist * (1.0 + 1e-12):
        raise ResampleError("requested frequency outside the sampled band")
    f, n0 = d.density, -(grid.points // 2)
    n, lags = n0 + np.arange(f.size, dtype=float), np.arange(1 - f.size, z.size)  # lags: k - j
    a, c = z[0] * grid.dv / (2.0 * math.pi), step * grid.dv / (4.0 * math.pi)
    chirp = np.zeros(1 << (f.size + z.size - 2).bit_length(), dtype=complex)
    chirp[lags] = np.conj(_phase(c, (lags - n0) ** 2.0))
    conv = np.fft.ifft(np.fft.fft(f * _phase(a, n) * _phase(c, n * n), chirp.size) * np.fft.fft(chirp))
    return _add_atoms(grid.dv * _phase(c, k * k) * conv[:z.size], d.atoms, z).reshape(np.shape(xi))


def _hermitian_defect(values: Array) -> float:
    # bin 0 holds -Nyquist and has no positive partner; |v_k - conj(v_N-k)| is symmetric
    # in (k, N - k), so compare each pair once, for k = 1 .. N/2 (xi = 0 included)
    half = values.size // 2
    diff = np.conj(values[:half - 1:-1])
    np.subtract(values[1:half + 1], diff, out=diff)
    return float(np.max(np.abs(diff)))


@functools.cache
def _keep_fft_scratch() -> bool:
    """Once per process, fix glibc's mmap and trim thresholds at 32 and 64 MiB (its dynamic
    threshold's cap, and twice it), so the FFT scratch an inverse frees stays in the heap instead
    of faulting back in zeroed.  Setting either one stops glibc's dynamic rule, so both are set.
    False, and nothing raised, where mallopt is missing or refuses (macOS, Windows, musl)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return bool(mallopt(-3, 32 << 20)) and bool(mallopt(-1, 64 << 20))  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD


def inverse_transform(f: SpectralField) -> MixedDistribution:
    """Invert to a density by inverse FFT; the field must carry no atoms.

    Raises SymmetryError when the field is not Hermitian within SYM_TOL
    (relative to its peak).
    """
    grid = f.grid
    vals = f.values
    dens = np.abs(vals)  # the result's buffer, |vals| until the density overwrites it
    scale = max(float(np.max(dens)), 1e-300)
    defect = _hermitian_defect(vals)
    if defect > SYM_TOL * scale:
        raise SymmetryError(
            f"field is not Hermitian-symmetric (defect {defect:.3e}, scale {scale:.3e})"
        )
    # fftshift and ifft in one complex FFT-order work array, filled from real or complex
    # samples; N is even, so both shifts swap the halves
    half = grid.points // 2
    work = np.empty(grid.points, dtype=complex)
    work[:half], work[half:] = vals[half:], vals[:half]
    _keep_fft_scratch()
    np.fft.ifft(work, out=work)
    # ifftshift into dens, then the real part of work / dv as numpy's complex division
    # gives it, NaN and signed zeros included: dv is real, so (im * 0 + re) * (1 / dv)
    for out, src in ((dens[:half], work[half:]), (dens[half:], work[:half])):
        np.multiply(src.imag, 0.0, out=out)
        out += src.real
    dens *= 1.0 / grid.dv
    return MixedDistribution(grid=grid, density=dens)


# ----------------------------------------------------------------------
# propagators
# ----------------------------------------------------------------------

def _exp(y) -> Array:
    """np.exp(y) bit for bit.  numpy takes a slow path per element wherever exp underflows;
    below EXP_UNDERFLOW the result is exactly +0.0, so those entries are left at 0 and only
    the rest (NaN included) are evaluated."""
    y = np.asarray(y, dtype=float)
    dead = y < EXP_UNDERFLOW
    if not dead.any():
        return np.exp(y)
    out = np.zeros(y.shape)
    np.exp(y, out=out, where=~dead)
    return out if out.ndim else out[()]


def _live(values: Array) -> slice:
    """Live span of values: first to last nonzero sample, empty when all are 0."""
    nonzero = values != 0
    first, end = int(nonzero.argmax()), values.size - int(nonzero[::-1].argmax())
    return slice(first, end) if nonzero[first] else slice(0, 0)


def _multiply_live(values: Array, nodes: Array, live: slice, mult_fn: Callable[[Array], Array]) -> Array:
    """values * mult_fn(nodes), mult_fn evaluated on the live span of values alone.  Multipliers are
    finite, so outside it values * m is a zero: the one values * 1 gives when m >= 0, in either dtype."""
    mult = np.asarray(mult_fn(nodes[live]))
    out = values * np.ones((), mult.dtype)
    np.multiply(values[live], mult, out=out[live])
    return out


def _multiply(f: SpectralField, mult_fn: Callable[[Array], Array]) -> SpectralField:
    values = _multiply_live(f.values, f.grid.xi(), f._span, mult_fn)
    analytic = None
    if f.analytic is not None:
        base = f.analytic
        analytic = lambda z: np.asarray(base(z)) * np.asarray(mult_fn(z))
    return SpectralField(grid=f.grid, values=values, analytic=analytic)


def _require_time(t: float) -> None:
    if not 0.0 <= t < math.inf:  # NaN fails both comparisons
        raise InvalidParameterError(f"time must be finite and nonnegative, got {t}")


def heat_multiplier(sigma_sq: float, t: float) -> Callable[[Array], Array]:
    return lambda xi: _exp(-sigma_sq * np.asarray(xi) ** 2 * t)


def kinetic_multiplier(kernel: BackgroundKernel, t: float) -> Callable[[Array], Array]:
    return lambda xi: _exp(-generator_symbol(kernel, xi) * t)


def multiplier_bounded(kernel: Optional[BackgroundKernel], t: float, reach: float) -> bool:
    """True when the kinetic multiplier of kernel at t, or the heat multiplier where kernel is
    None, lies in [0, 1] at every |xi| <= reach.  Both are exp(-r t) with a rate r >= 0, so
    this holds when t > 0 and r is never NaN there (the heat rate sigma^2 xi^2 never is).  At
    t = 0 a rate that overflows to inf gives inf * 0, a NaN, so t = 0 is never certified."""
    return t > 0.0 and (kernel is None or kernel.generator_defined(reach))


def heat_propagate(f: SpectralField, sigma_sq: float, t: float) -> SpectralField:
    """Multiply by the heat multiplier exp(-sigma_sq xi^2 t)."""
    _require_time(t)
    return _multiply(f, heat_multiplier(sigma_sq, t))


def rosenau_propagate(f: SpectralField, kernel: BackgroundKernel, t: float) -> SpectralField:
    """Multiply by the kinetic multiplier exp(-A_eps(xi) t); its modulus is <= 1."""
    _require_time(t)
    return _multiply(f, kinetic_multiplier(kernel, t))


def singular_split(kernel: BackgroundKernel, t: float,
                   grid: GridSpec) -> Tuple[SpectralField, float]:
    """Split the fundamental solution into its regular transform and atom weight.

    Returns (G1, w) with G1(xi) = exp(-mu (1-Mhat)) - exp(-mu) sampled on the
    grid and w = exp(-mu), mu = lam t / eps^2, so that G1 + w is exactly the
    kinetic multiplier.  The atom weight multiplies a Dirac mass at 0.
    """
    _require_time(t)
    mu = kernel.intensity(t)
    w = math.exp(-mu)

    def g1(xi):
        return _exp(-mu * np.asarray(kernel.one_minus_symbol(xi))) - w

    return field_from_symbol(grid, g1), w


def regularized_propagator(kernel: BackgroundKernel, t: float, grid: GridSpec) -> SpectralField:
    """Fundamental-solution transform with the singular part discarded.

    P_reg(xi, t) = exp(-mu (1-Mhat(xi))) - (1-Mhat(xi)) exp(-mu); adding back
    (1-Mhat) exp(-mu) recovers the kinetic multiplier pointwise.
    """
    return regularized_solution(delta_field(grid), kernel, t)


def regularized_solution(f: SpectralField, kernel: BackgroundKernel, t: float) -> SpectralField:
    """Solution obtained by convolving the initial datum with the regularized kernel.  An
    intensity mu that overflows raises: exp(-mu (1 - Mhat)) would be inf * 0, a NaN, at xi = 0."""
    _require_time(t)
    mu = kernel.intensity(t)
    if not mu < math.inf:
        raise InvalidParameterError(f"the jump intensity mu = lam t / eps^2 is not finite: {mu!r}")
    w = math.exp(-mu)

    def mult(xi):
        om = np.asarray(kernel.one_minus_symbol(xi))
        return _exp(-mu * om) - om * w

    return _multiply(f, mult)


# ----------------------------------------------------------------------
# dilation (frequency-side rescaling)
# ----------------------------------------------------------------------

def dilate(f: SpectralField, factor: float) -> SpectralField:
    """Pure dilation of the frequency argument, result(xi) = f(factor * xi), exact through
    ``SpectralField.at``.  ResampleError when f has no closure, or is sampled data and the
    factor is above 1, beyond the stored band."""
    if factor < 0:
        raise InvalidParameterError("dilation factor must be nonnegative")
    return field_from_symbol(f.grid, lambda z: f.at(factor * np.asarray(z)))


# ----------------------------------------------------------------------
# domain-size monitoring
# ----------------------------------------------------------------------

def mass_leak_estimate(grid: GridSpec, variance: float) -> float:
    """Gaussian-tail estimate of the mass beyond |v| = L/2 for the given variance."""
    if variance <= 0:
        return 0.0
    return math.erfc((grid.length / 2.0) / math.sqrt(2.0 * variance))


def require_grid_contains(grid: GridSpec, variance: float) -> None:
    """Abort with GridTooSmallError when the tail estimate exceeds LEAK_TOL."""
    leak = mass_leak_estimate(grid, variance)
    if leak > LEAK_TOL:
        raise GridTooSmallError(
            f"estimated mass {leak:.3e} beyond |v| = {grid.length / 2:g} exceeds {LEAK_TOL:g}")


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def save_distribution(d: MixedDistribution, path: str) -> None:
    """Text format: header "L N n_atoms", N density values, then atom pairs."""
    with open(path, "w") as fh:
        fh.write(f"{d.grid.length:.17g} {d.grid.points} {len(d.atoms)}\n")
        for x in d.density:
            fh.write(f"{x:.17g}\n")
        for loc, w in d.atoms:
            fh.write(f"{loc:.17g} {w:.17g}\n")


def load_distribution(path: str) -> MixedDistribution:
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 3:
        raise InvalidParameterError(f"{path}: truncated distribution file")
    for key, token in (("N", tokens[1]), ("n_atoms", tokens[2])):
        if not token.isdecimal():
            raise InvalidParameterError(f"{path}: header {key} must be a nonnegative integer, got {token!r}")
    points, n_atoms = int(tokens[1]), int(tokens[2])
    need = 3 + points + 2 * n_atoms
    if len(tokens) != need:
        raise InvalidParameterError(
            f"{path}: expected {need} tokens for N={points}, n_atoms={n_atoms}, got {len(tokens)}"
        )
    values = np.array([float(x) for x in tokens[:1] + tokens[3:]])
    if not np.all(np.isfinite(values)):
        raise InvalidParameterError(f"{path}: non-finite value in distribution file")
    length, density = float(values[0]), values[1:1 + points]
    atoms = [(float(loc), float(w)) for loc, w in values[1 + points:].reshape(-1, 2)]
    if points == 0:
        # atoms-only file: a zero density on the default grid; the atoms are exact off the
        # grid, and its N sets how finely the moments of the propagated density resolve
        density = np.zeros(DEFAULT_GRID_N)
    return MixedDistribution(grid=GridSpec(length, density.size), density=density, atoms=tuple(atoms))
