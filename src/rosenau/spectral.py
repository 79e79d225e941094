"""Conjugate grids, spectral fields, and the exact Fourier-space propagators.

Sign convention, shared package-wide:  fhat(xi) = integral of exp(-i xi v) f(v) dv.
A SpectralField samples fhat on the centered frequency grid of a GridSpec;
a MixedDistribution is the physical-space counterpart, a uniform-grid density
plus a finite list of weighted Dirac atoms.  Atoms are tracked symbolically
end to end and never pushed through the numerical inverse transform: the
fundamental solution of the central-difference family is purely atomic and
inverting Dirac combs numerically is meaningless.

All operations are pure (input -> new output) and thread-safe.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

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
BAND_REFINE = 16  # off-grid evaluation samples the transform at spacing dxi / BAND_REFINE
EXP_UNDERFLOW = -746.0  # exp(y) rounds to +0.0 for every y below log(2^-1075) = -745.13


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform velocity grid on [-L/2, L/2) with its conjugate frequency grid."""

    length: float
    points: int

    def __post_init__(self):
        if self.length <= 0:
            raise InvalidParameterError(f"grid length must be positive, got {self.length}")
        if self.points < 16 or not _is_power_of_two(self.points):
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

    ``analytic``, when present, evaluates the same transform at arbitrary
    frequencies; propagators compose it so that rescaling stays exact.
    """

    grid: GridSpec
    values: Array
    analytic: Optional[Callable[[Array], Array]] = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
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
        """Evaluate at arbitrary frequencies, exactly (in the closure's dtype) when
        analytic, else by trigonometric refinement (see ``_band_limited_eval``)."""
        if self.analytic is not None:
            return np.asarray(self.analytic(xi))
        return _band_limited_eval(self, np.asarray(xi, dtype=float))

    @functools.cached_property  # built once per field, read by _band_limited_eval
    def _refined(self) -> Array:
        dens = np.fft.ifftshift(np.fft.ifft(np.fft.fftshift(self.values)))
        padded = np.pad(dens, (BAND_REFINE - 1) * self.grid.points // 2)
        return np.fft.fftshift(np.fft.fft(np.fft.ifftshift(padded)))

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


def field_from_symbol(grid: GridSpec, fn: Callable[[Array], Array]) -> SpectralField:
    """Sample an analytic transform on the grid, keeping the closure."""
    return SpectralField(grid=grid, values=np.asarray(fn(grid.xi()), dtype=complex), analytic=fn)


def delta_field(grid: GridSpec) -> SpectralField:
    """Transform of the unit Dirac mass at the origin (constant 1)."""
    return field_from_symbol(grid, lambda xi: np.ones_like(np.asarray(xi, dtype=float), dtype=complex))


def gaussian_field(grid: GridSpec, variance: float) -> SpectralField:
    """Transform of a centered normal density with the given variance."""
    if variance < 0:
        raise InvalidParameterError("variance must be nonnegative")

    def fn(xi):
        x = np.asarray(xi, dtype=float)
        return _exp(-0.5 * variance * x * x)

    return field_from_symbol(grid, fn)


def gaussian_reference(grid: GridSpec, sigma_sq: float) -> SpectralField:
    """Transform exp(-sigma_sq xi^2) of the time-one heat kernel profile."""
    return gaussian_field(grid, 2.0 * sigma_sq)


# ----------------------------------------------------------------------
# transforms
# ----------------------------------------------------------------------

def forward_transform(d: MixedDistribution) -> SpectralField:
    """Transform of the density by FFT plus the exact atomic sum."""
    grid = d.grid
    vals = grid.dv * np.fft.fftshift(np.fft.fft(np.fft.ifftshift(d.density.astype(complex))))
    if d.atoms:
        xi = grid.xi()
        for loc, w in d.atoms:
            vals = vals + w * np.exp(-1j * xi * loc)
    return SpectralField(grid=grid, values=vals)


def _hermitian_defect(values: Array) -> float:
    # bin 0 holds -Nyquist and has no positive partner; |v_k - conj(v_N-k)| is symmetric
    # in (k, N - k), so compare each pair once, for k = 1 .. N/2 (xi = 0 included)
    half = values.size // 2
    diff = np.conj(values[:half - 1:-1])
    np.subtract(values[1:half + 1], diff, out=diff)
    return float(np.max(np.abs(diff)))


def inverse_transform(f: SpectralField,
                      atoms: Sequence[Tuple[float, float]] = ()) -> MixedDistribution:
    """Invert to a density after removing the declared atoms exactly.

    The caller supplies the atom list; their transforms are subtracted
    before the inverse FFT so only the absolutely continuous part is
    inverted numerically.  Raises SymmetryError when the remaining field
    is not Hermitian within SYM_TOL (relative to its peak).
    """
    grid = f.grid
    vals = f.values
    if atoms:
        xi = grid.xi()
        for loc, w in atoms:
            vals = vals - w * np.exp(-1j * xi * loc)
    dens = np.abs(vals)  # the result's buffer, |vals| until the density overwrites it
    scale = max(float(np.max(dens)), 1e-300)
    defect = _hermitian_defect(vals)
    if defect > SYM_TOL * scale:
        raise SymmetryError(
            f"field is not Hermitian-symmetric (defect {defect:.3e}, scale {scale:.3e})"
        )
    # fftshift, ifft, / dv and ifftshift in one FFT-order work array; N is even,
    # so both shifts swap the halves
    half = grid.points // 2
    work = np.concatenate((vals[half:], vals[:half]))
    np.fft.ifft(work, out=work)
    np.divide(work, grid.dv, out=work)
    dens[:half], dens[half:] = work.real[half:], work.real[:half]
    return MixedDistribution(grid=grid, density=dens, atoms=tuple(atoms))


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
    finite, so outside it values * m is a zero: the one values * 1 gives when m >= 0, complex too."""
    mult = np.asarray(mult_fn(nodes[live]))
    out = values * np.ones((), mult.dtype)
    np.multiply(values[live], mult, out=out[live])
    return out


def _multiply(f: SpectralField, mult_fn: Callable[[Array], Array]) -> SpectralField:
    values = _multiply_live(f.values, f.grid.xi(), f._span, mult_fn)
    analytic = None
    if f.analytic is not None:
        base = f.analytic
        analytic = lambda z: np.asarray(base(z), dtype=complex) * np.asarray(mult_fn(z))
    return SpectralField(grid=f.grid, values=values, analytic=analytic)


def _require_time(t: float) -> None:
    if not 0.0 <= t < math.inf:  # NaN fails both comparisons
        raise InvalidParameterError(f"time must be finite and nonnegative, got {t}")


def heat_multiplier(sigma_sq: float, t: float) -> Callable[[Array], Array]:
    return lambda xi: _exp(-sigma_sq * np.asarray(xi) ** 2 * t)


def kinetic_multiplier(kernel: BackgroundKernel, t: float) -> Callable[[Array], Array]:
    return lambda xi: _exp(-generator_symbol(kernel, xi) * t)


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
    """Solution obtained by convolving the initial datum with the regularized kernel."""
    _require_time(t)
    mu = kernel.intensity(t)
    w = math.exp(-mu)

    def mult(xi):
        om = np.asarray(kernel.one_minus_symbol(xi))
        return _exp(-mu * om) - om * w

    return _multiply(f, mult)


# ----------------------------------------------------------------------
# dilation (frequency-side rescaling)
# ----------------------------------------------------------------------

def _band_limited_eval(f: SpectralField, targets: Array) -> Array:
    """Evaluate a sampled transform off-grid by zero-padded FFT refinement.

    The density behind the field is supported in [-L/2, L/2), so the
    transform is band-limited; padding the physical support with zeros
    yields exact samples at spacing dxi/BAND_REFINE (``SpectralField._refined``,
    built once per field), and a local cubic fill-in covers arbitrary targets.
    """
    grid = f.grid
    if np.any(np.abs(targets) > grid.nyquist * (1.0 + 1e-12)):
        raise ResampleError("requested frequency outside the sampled band")
    m, fine_dxi = grid.points * BAND_REFINE, grid.dxi / BAND_REFINE
    fine_vals, fine_xi0 = f._refined, -fine_dxi * (m // 2)
    # cubic Lagrange on the 4 refined samples around each target
    pos = (targets - fine_xi0) / fine_dxi
    i1 = np.clip(np.floor(pos).astype(int), 1, m - 3)
    s = pos - i1
    ym1, y0, y1, y2 = (fine_vals[i1 - 1], fine_vals[i1], fine_vals[i1 + 1], fine_vals[i1 + 2])
    return (
        ym1 * (-s * (s - 1.0) * (s - 2.0) / 6.0)
        + y0 * ((s + 1.0) * (s - 1.0) * (s - 2.0) / 2.0)
        + y1 * (-(s + 1.0) * s * (s - 2.0) / 2.0)
        + y2 * ((s + 1.0) * s * (s - 1.0) / 6.0)
    )


def dilate(f: SpectralField, factor: float) -> SpectralField:
    """Pure dilation of the frequency argument: result(xi) = f(factor * xi).

    Evaluated through ``SpectralField.at``: exact when the field carries an
    analytic evaluator, band-limited refinement otherwise, where a factor
    above 1 would need samples beyond the stored band and raises
    ResampleError.
    """
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
    points = int(tokens[1])
    n_atoms = int(tokens[2])
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
        # atoms-only file: rebuild a minimal grid containing all atoms
        grid = GridSpec(length=length, points=16)
        density = np.zeros(16)
    else:
        grid = GridSpec(length, points)
    return MixedDistribution(grid=grid, density=density, atoms=tuple(atoms))
