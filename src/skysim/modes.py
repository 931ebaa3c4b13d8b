"""Transverse grids and Laguerre-Gaussian modes at the beam waist.

Everything downstream works on a square sampled patch of the transverse
plane. Modes are restricted to radial index p = 0, so a mode is fixed by
its azimuthal index ell and the waist w0. The azimuthal phase convention
is exp(+i*ell*phi) throughout; flipping it globally negates every
topological charge computed later, so it is fixed here once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

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
        if self.n < 16 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 16, got n={self.n}")
        if self.dx <= 0:
            raise ValueError(f"pixel pitch must be positive, got dx={self.dx}")

    @property
    def extent(self) -> float:
        return self.n * self.dx

    def coords(self) -> np.ndarray:
        """1D coordinate axis in metres."""
        return (np.arange(self.n) - self.n // 2) * self.dx

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) coordinate arrays; x varies along columns, y along rows."""
        c = self.coords()
        return np.meshgrid(c, c, indexing="xy")


@dataclass(frozen=True)
class LGMode:
    """Laguerre-Gaussian mode label, radial index fixed at zero."""

    ell: int
    w0: float
    p: int = 0

    def __post_init__(self):
        if self.p != 0:
            raise ValueError("only p = 0 modes are supported")
        if self.w0 <= 0:
            raise ValueError(f"waist must be positive, got w0={self.w0}")


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

    @property
    def power(self) -> float:
        """Total power by Riemann sum, 1.0 for a normalized field."""
        return float(np.sum(np.abs(self.amplitude) ** 2) * self.grid.dx**2)


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
        if not self.ell_min <= ell <= self.ell_max:
            raise KeyError(f"ell={ell} outside range [{self.ell_min}, {self.ell_max}]")
        return float(self.powers[ell - self.ell_min])

    @property
    def total(self) -> float:
        return float(self.powers.sum())

    @property
    def ells(self) -> np.ndarray:
        return np.arange(self.ell_min, self.ell_max + 1)


def make_grid(n: int, extent: float) -> Grid2D:
    """Build a grid of n x n samples covering a square of side `extent`."""
    if extent <= 0:
        raise ValueError(f"extent must be positive, got {extent}")
    return Grid2D(n=n, dx=extent / n)


def effective_radius(ell: int, w0: float) -> float:
    """Effective mode radius w0*sqrt(|ell|+1).

    Grows with |ell| because the bright ring moves outward; it is the
    length scale compared against the turbulence correlation length when
    forming the dimensionless strength.
    """
    if w0 <= 0:
        raise ValueError(f"waist must be positive, got w0={w0}")
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
        Unit-power field. The analytic normalization is already correct in
        the continuum; a final discrete renormalization removes the
        residual Riemann-sum error so the unit-power invariant holds
        exactly.
    """
    _check_resolution(mode, grid)
    X, Y = grid.meshgrid()
    r = np.hypot(X, Y)
    phi = np.arctan2(Y, X)
    a = abs(mode.ell)
    radial = (
        (1.0 / mode.w0)
        * np.sqrt(2.0 / (np.pi * factorial(a)))
        * (np.sqrt(2.0) * r / mode.w0) ** a
        * np.exp(-((r / mode.w0) ** 2))
    )
    amplitude = radial * np.exp(1j * mode.ell * phi)
    amplitude = amplitude / np.sqrt(np.sum(np.abs(amplitude) ** 2) * grid.dx**2)
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
