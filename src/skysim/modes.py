"""Transverse grids and Laguerre-Gaussian modes at the beam waist.

Everything downstream works on a square sampled patch of the transverse
plane. Modes are restricted to radial index p = 0, so a mode is fixed by
its azimuthal index ell and the waist w0. The azimuthal phase convention
is exp(+i*ell*phi) throughout; flipping it globally negates every
topological charge computed later, so it is fixed here once.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

__all__ = [
    "SamplingError",
    "Grid2D",
    "LGMode",
    "ComplexField",
    "OamSpectrum",
    "make_grid",
    "lg_field",
    "azimuthal_spectrum",
    "effective_radius",
]


class SamplingError(ValueError):
    """A requested mode or screen cannot be resolved on the given grid."""


def _check_integer(name: str, value, low: int | None = None,
                   high: int | None = None) -> int:
    """int(value); refuse a bool, a non-integer, or one outside [low, high]."""
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or (low is not None and value < low)
            or (high is not None and value > high)):
        if high is not None:
            kind = f"an integer in [{low}, {high}]"
        elif low is not None:
            kind = "a non-negative integer" if low == 0 else f"an integer >= {low}"
        else:
            kind = "an integer"
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return int(value)


def _check_real(name: str, value, high: float = np.inf, *, zero: bool = False,
                infinite: bool = False) -> float:
    """float(value); refuse a bool, a non-real, NaN, or a real outside (0, high),
    or [0, high) when zero is allowed; infinity passes only when infinite."""
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not (0 <= value if zero else 0 < value)
            or not (value < high or infinite and value == np.inf)):
        bound = ">= 0" if zero else "> 0"
        kind = (f"{bound} and < {high:g}" if high < np.inf
                else f"{bound} or inf" if infinite else f"finite and {bound}")
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    return float(value)


def _check_size(n) -> int:
    n = _check_integer("grid size", n, low=16)
    if n % 2 != 0:
        raise ValueError(f"grid size must be an even integer >= 16, got n={n}")
    return n


@dataclass(frozen=True)
class Grid2D:
    """Square sampling grid with centred coordinates.

    Coordinates run over [-n*dx/2, n*dx/2) in steps of dx, matching the
    FFT sample layout (the origin sits on a sample, the grid is symmetric
    up to the one-pixel offset that layout implies).
    """

    n: int
    dx: float

    def __post_init__(self):
        object.__setattr__(self, "n", _check_size(self.n))
        _check_real("pixel pitch", self.dx)

    @property
    def extent(self) -> float:
        return self.n * self.dx

    def coords(self) -> np.ndarray:
        """1D coordinate axis in metres."""
        return (np.arange(self.n) - self.n // 2) * self.dx


@dataclass(frozen=True)
class LGMode:
    """Laguerre-Gaussian mode label: azimuthal index and waist.

    The radial index is zero for every mode here, so it is not a field.
    """

    ell: int
    w0: float

    def __post_init__(self):
        _check_integer("mode index ell", self.ell)
        _check_real("waist w0", self.w0)


@dataclass
class ComplexField:
    """Sampled complex amplitude on a grid, nominally unit power."""

    grid: Grid2D
    amplitude: np.ndarray

    def __post_init__(self):
        if self.amplitude.shape != (self.grid.n, self.grid.n):
            raise ValueError(
                f"amplitude shape {self.amplitude.shape} does not match "
                f"grid {self.grid.n}x{self.grid.n}"
            )


@dataclass
class OamSpectrum:
    """Power fractions over an inclusive range of azimuthal indices."""

    ell_min: int
    ell_max: int
    powers: np.ndarray

    def __post_init__(self):
        expected = self.ell_max - self.ell_min + 1
        if len(self.powers) != expected:
            raise ValueError(
                f"expected {expected} power entries for range "
                f"[{self.ell_min}, {self.ell_max}], got {len(self.powers)}"
            )
        if np.any(self.powers < 0) or np.any(self.powers > 1):
            raise ValueError("modal powers must lie in [0, 1]")

    def power(self, ell: int) -> float:
        _check_integer("mode index ell", ell)
        if not self.ell_min <= ell <= self.ell_max:
            raise KeyError(f"ell={ell} outside range [{self.ell_min}, {self.ell_max}]")
        return float(self.powers[ell - self.ell_min])

    @property
    def total(self) -> float:
        return float(self.powers.sum())


def make_grid(n: int, extent: float) -> Grid2D:
    """Build a grid of n x n samples covering a square of side `extent`."""
    _check_size(n)
    return Grid2D(n=n, dx=extent / n)


def effective_radius(ell: int, w0: float) -> float:
    """Effective mode radius w0*sqrt(|ell|+1).

    Grows with |ell| because the bright ring moves outward; it is the
    length scale compared against the turbulence correlation length when
    forming the dimensionless strength. An index or waist that LGMode
    refuses is refused here too.
    """
    LGMode(ell, w0)
    return w0 * np.sqrt(abs(ell) + 1)


def _check_resolution(mode: LGMode, grid: Grid2D) -> None:
    w = effective_radius(mode.ell, mode.w0)
    if w < 8 * grid.dx:
        raise SamplingError(
            f"mode ell={mode.ell}, w0={mode.w0:g} has effective radius "
            f"{w:g} m, below 8 pixels ({8 * grid.dx:g} m)"
        )
    if w > grid.extent / 3:
        raise SamplingError(
            f"mode ell={mode.ell}, w0={mode.w0:g} has effective radius "
            f"{w:g} m, beyond a third of the grid extent ({grid.extent / 3:g} m)"
        )


def lg_field(mode: LGMode, grid: Grid2D) -> ComplexField:
    """Sample a normalized waist-plane LG mode on a grid.

    Parameters
    ----------
    mode : LGMode
        Azimuthal index and waist; p = 0.
    grid : Grid2D
        Target grid. Must resolve the mode: the effective radius has to
        span at least 8 pixels and at most a third of the extent.

    Returns
    -------
    ComplexField
        Unit-power samples of z^|ell| exp(-|z|^2), z = (x + iy)/w0 with x
        along columns, and z conjugated for ell < 0, so mirror modes are
        exact conjugates. The discrete normalization sets the constant factor.
    """
    _check_resolution(mode, grid)
    c = grid.coords() / mode.w0
    amplitude = np.exp(-c * c)
    amplitude = amplitude[:, None] * amplitude.astype(complex)
    if mode.ell:
        z = c + np.sign(mode.ell) * 1j * c[:, None]
        for _ in range(abs(mode.ell)):
            amplitude *= z
    # einsum, not a BLAS dot, so the bits do not depend on the thread count
    re_im = amplitude.view(float)
    amplitude /= np.sqrt(np.einsum("ij,ij", re_im, re_im) * grid.dx**2)
    return ComplexField(grid=grid, amplitude=amplitude)


def azimuthal_spectrum(
    field: ComplexField, ell_range: tuple[int, int], n_angles: int = 256
) -> OamSpectrum:
    """Total power per azimuthal harmonic, all radial content included.

    Unlike a projection onto the p = 0 modes alone, this resolves the
    field into complete e^(i*ell*phi) classes, so the powers over all
    indices sum to the field power (up to interpolation error of the
    polar resampling). Captured fractions computed from it therefore
    converge to one as the window grows, which makes it the right measure
    for how much scattered light a finite index window retains.
    """
    ell_min, ell_max = ell_range
    for name, value in (("ell_min", ell_min), ("ell_max", ell_max), ("n_angles", n_angles)):
        _check_integer(name, value)
    if ell_min > ell_max:
        raise ValueError(f"empty index range [{ell_min}, {ell_max}]")
    if n_angles < 4 * (max(abs(ell_min), abs(ell_max)) + 1):
        raise ValueError(f"n_angles={n_angles} undersamples the requested range")
    from scipy.ndimage import map_coordinates

    g = field.grid
    dr = g.dx / 2
    radii = (np.arange(g.n) + 0.5) * dr  # out to extent/2, corners dropped
    angles = 2 * np.pi * np.arange(n_angles) / n_angles
    R, PHI = np.meshgrid(radii, angles, indexing="ij")
    cols = R * np.cos(PHI) / g.dx + g.n // 2
    rows = R * np.sin(PHI) / g.dx + g.n // 2
    re = map_coordinates(field.amplitude.real, [rows, cols], order=3, cval=0.0)
    im = map_coordinates(field.amplitude.imag, [rows, cols], order=3, cval=0.0)
    coeff = np.fft.fft(re + 1j * im, axis=1) / n_angles
    class_power = 2 * np.pi * np.sum(np.abs(coeff) ** 2 * radii[:, None], axis=0) * dr
    ells = np.fft.fftfreq(n_angles, 1 / n_angles).astype(int)
    lookup = dict(zip(ells, class_power))
    powers = np.array([lookup[e] for e in range(ell_min, ell_max + 1)])
    return OamSpectrum(
        ell_min=ell_min, ell_max=ell_max, powers=np.clip(powers, 0.0, 1.0)
    )
