"""Kolmogorov phase screens with subharmonic low-frequency completion.

The screen generator follows the standard FFT recipe: draw complex
Gaussian spectral coefficients, shape them by the square root of the
phase power spectrum, inverse transform, keep the real part. The spectrum
used is

    Phi(f) = 0.023 * r0**(-5/3) * f**(-11/3)

with f in cycles per metre. An FFT screen alone misses power below the
fundamental 1/(n*dx), which wrecks the structure function at large
separations, so five levels of 3x3 subharmonic patches are layered on
top, each refining the central cell of the previous level by a factor of
three in frequency (Lane, Glindemann & Dainty, Waves Random Media 2, 209,
1992). Every patch cell is a plane wave that factors into an x and a y
exponential, so all levels together are evaluated as one separable
product Re(E C E^T): E holds the n x 3L exponentials of the grid
coordinates at the 3L patch frequencies, and C is block diagonal with one
3 x 3 block of cell coefficients per level.

Two refinements matter for quantitative agreement with the 6.88
(r/r0)**(5/3) structure-function law. First, near the origin the
spectrum is so steep that assigning each discrete mode the point value
Phi(f) times its cell area misstates the contribution of the lowest
cells; each cell within four grid cells of the origin instead carries a
cell-averaged weight (curvature-matched for the FFT lattice, a geometric
compromise for the subharmonic patches, from a midpoint quadrature
computed on first use and cached). Second, the draw order of random numbers is fixed
and documented below so that screens are reproducible bit for bit: the
FFT block consumes one full real matrix then one full imaginary matrix,
and each subharmonic cell consumes one complex pair in row-major cell
order, including the central cell whose draw is discarded. Keeping the
discarded draw means a screen's random stream does not depend on which
cells survive, which in turn keeps the r0 scaling law exact per seed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

from skysim.modes import Grid2D, SamplingError, effective_radius

__all__ = [
    "TurbulenceSpec",
    "PhaseScreen",
    "kolmogorov_psd",
    "omega_to_fried",
    "generate_screen",
    "structure_function",
    "phase_structure_theory",
    "write_screen",
    "read_screen",
]

_PSD_COEFF = 0.023
_WEIGHT_RADIUS = 4  # FFT cells within this Chebyshev radius get averaged weights
_SUBHARMONIC_LEVELS_MAX = 8


@lru_cache(maxsize=None)
def _cell_average(m1: int, m2: int, exponent: float, q: int = 65) -> float:
    """Mean of (x^2+y^2)**exponent over a unit cell at (m1, m2), relative
    to the cell-centre value. Midpoint rule with q points per axis."""
    u = (np.arange(q) + 0.5) / q - 0.5
    X, Y = np.meshgrid(m1 + u, m2 + u, indexing="xy")
    return float(((X * X + Y * Y) ** exponent).mean() / (m1 * m1 + m2 * m2) ** exponent)


def _base_weight(a: int, b: int) -> float:
    # Curvature-matched: the structure function weights low cells by
    # Phi(f)*f^2, so the appropriate cell average uses the -5/6 power.
    return _cell_average(a, b, -5.0 / 6.0)


def _subharmonic_weight(a: int, b: int) -> float:
    # Geometric mean of the flat (-11/6) and curvature (-5/6) averages;
    # subharmonic cells sit between the regimes the two limits describe.
    return float(
        np.sqrt(_cell_average(a, b, -11.0 / 6.0) * _cell_average(a, b, -5.0 / 6.0))
    )


def kolmogorov_psd(f, r0: float):
    """Phase power spectral density at spatial frequency f (cycles/m).

    Accepts scalars or arrays; every frequency must be strictly positive.
    An infinite frequency or r0 is allowed and gives zero power.
    """
    f = np.asarray(f, dtype=float)
    if np.any(f <= 0):
        raise ValueError("kolmogorov_psd requires strictly positive frequencies")
    if not r0 > 0:
        raise ValueError(f"Fried parameter must be positive, got r0={r0}")
    out = _PSD_COEFF * r0 ** (-5.0 / 3.0) * f ** (-11.0 / 3.0)
    return out if out.ndim else float(out)


def _check_strength(omega: float) -> None:
    if not 0 <= omega < np.inf:
        raise ValueError(f"turbulence strength must be finite and >= 0, got {omega}")


def _check_levels(levels: int) -> None:
    if not isinstance(levels, Integral) or not 0 <= levels <= _SUBHARMONIC_LEVELS_MAX:
        raise ValueError(
            f"n_subharmonics must be an integer in [0, {_SUBHARMONIC_LEVELS_MAX}], "
            f"got {levels}"
        )


def omega_to_fried(omega: float, ell: int, w0: float) -> float:
    """Fried parameter for a dimensionless strength omega = 2*w(ell)/r0.

    omega = 0 maps to an infinite r0, i.e. no turbulence; negative and
    non-finite values are rejected.
    """
    _check_strength(omega)
    if omega == 0:
        return float("inf")
    return 2.0 * effective_radius(ell, w0) / omega


@dataclass(frozen=True)
class TurbulenceSpec:
    """Everything needed to regenerate one screen deterministically."""

    r0: float
    grid: Grid2D
    seed: int
    n_subharmonics: int = 5

    def __post_init__(self):
        if not self.r0 > 0:
            raise ValueError(f"Fried parameter must be positive, got {self.r0}")
        _check_levels(self.n_subharmonics)
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")

    def statistics_key(self) -> tuple:
        """Identity of the generating distribution, seed excluded."""
        return (self.r0, self.grid.n, self.grid.dx, self.n_subharmonics)


@dataclass
class PhaseScreen:
    spec: TurbulenceSpec
    phase: np.ndarray

    def __post_init__(self):
        n = self.spec.grid.n
        if self.phase.shape != (n, n):
            raise ValueError(
                f"phase shape {self.phase.shape} does not match grid {n}x{n}"
            )

    @property
    def grid(self) -> Grid2D:
        return self.spec.grid


def generate_screen(spec: TurbulenceSpec) -> PhaseScreen:
    """Generate one phase screen in radians.

    The FFT screen is completed by the subharmonic patches, summed as
    one separable matrix product over all levels; the random draws are
    consumed in the documented order (FFT block, then one complex pair
    per patch cell, level by level, central cells included).

    Raises SamplingError when the grid cannot resolve r0 (r0 < 2*dx);
    such a screen would alias most of its power.
    """
    n, dx, r0 = spec.grid.n, spec.grid.dx, spec.r0
    if r0 < 2 * dx:
        raise SamplingError(
            f"r0={r0:g} m is below two pixels ({2 * dx:g} m); "
            "the grid cannot resolve this turbulence strength"
        )
    rng = np.random.default_rng(spec.seed)
    df = 1.0 / (n * dx)

    f = np.fft.fftfreq(n, 1.0 / n).astype(int) * df
    F = np.hypot(f, f[:, None])
    F[0, 0] = np.inf  # the DC cell carries no power
    amp = np.sqrt(kolmogorov_psd(F, r0)) * df
    for a in range(-_WEIGHT_RADIUS, _WEIGHT_RADIUS + 1):
        for b in range(-_WEIGHT_RADIUS, _WEIGHT_RADIUS + 1):
            if (a, b) != (0, 0):
                amp[b % n, a % n] *= np.sqrt(_base_weight(a, b))

    # filled in place, so the draw holds one complex n x n array, not three
    gauss = np.empty((n, n), dtype=complex)
    gauss.real = rng.standard_normal((n, n))
    gauss.imag = rng.standard_normal((n, n))
    gauss *= amp
    screen = np.fft.ifft2(gauss).real * n * n

    levels = spec.n_subharmonics
    coeff = np.zeros((3 * levels, 3 * levels), dtype=complex)
    for m in range(1, levels + 1):
        dfm = df / 3.0**m
        for i in (-1, 0, 1):
            for j in (-1, 0, 1):
                g = rng.standard_normal() + 1j * rng.standard_normal()
                if i == 0 and j == 0:
                    continue  # the draw is consumed regardless, see module docstring
                a2 = (
                    kolmogorov_psd(np.hypot(i * dfm, j * dfm), r0)
                    * dfm**2
                    * _subharmonic_weight(i, j)
                )
                # row: y frequency j*dfm; column: x frequency i*dfm
                coeff[3 * m - 2 + j, 3 * m - 2 + i] = np.sqrt(a2) * g

    freqs = np.outer(df / 3.0 ** np.arange(1, levels + 1), (-1, 0, 1)).ravel()
    waves = np.exp(2j * np.pi * np.outer(spec.grid.coords(), freqs))
    a = waves @ coeff
    screen += a.real @ waves.real.T - a.imag @ waves.imag.T

    screen -= screen.mean()
    return PhaseScreen(spec=spec, phase=screen)


def phase_structure_theory(r, r0: float):
    """Reference structure function 6.88*(r/r0)**(5/3)."""
    return 6.88 * (np.asarray(r, dtype=float) / r0) ** (5.0 / 3.0)


def structure_function(screens: list[PhaseScreen], separations) -> np.ndarray:
    """Ensemble phase structure function D(r) = <(phi(x+r) - phi(x))^2>.

    Parameters
    ----------
    screens : list of PhaseScreen
        At least 50 screens of identical statistics (same r0, grid and
        subharmonic depth; seeds naturally differ).
    separations : array-like
        Separations in metres. Each is rounded to a whole number of
        pixels, which must land in [1, n/2].

    Returns
    -------
    ndarray
        D(r) for each requested separation, averaged over both grid axes
        and the ensemble.
    """
    if len(screens) < 50:
        raise ValueError(
            f"structure function needs at least 50 screens, got {len(screens)}"
        )
    key = screens[0].spec.statistics_key()
    for s in screens[1:]:
        if s.spec.statistics_key() != key:
            raise ValueError("screens with mixed statistics cannot be pooled")
    grid = screens[0].grid
    stack = np.stack([s.phase for s in screens])

    out = np.empty(len(np.atleast_1d(separations)))
    for i, sep in enumerate(np.atleast_1d(separations)):
        lag = int(round(sep / grid.dx))
        if not 1 <= lag <= grid.n // 2:
            raise ValueError(
                f"separation {sep:g} m rounds to {lag} pixels, outside "
                f"[1, {grid.n // 2}]"
            )
        dx2 = ((stack[:, :, lag:] - stack[:, :, :-lag]) ** 2).mean()
        dy2 = ((stack[:, lag:, :] - stack[:, :-lag, :]) ** 2).mean()
        out[i] = 0.5 * (dx2 + dy2)
    return out


_SCREEN_MAGIC = b"SKYP"
_SCREEN_VERSION = 1
_SCREEN_HEADER = struct.Struct("<4sHIddQH")  # magic, version, n, dx, r0, seed, subh


def write_screen(screen: PhaseScreen, path) -> None:
    """Write a screen as a packed header plus row-major f64 phases."""
    spec = screen.spec
    header = _SCREEN_HEADER.pack(
        _SCREEN_MAGIC,
        _SCREEN_VERSION,
        spec.grid.n,
        spec.grid.dx,
        spec.r0,
        spec.seed,
        spec.n_subharmonics,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(screen.phase, dtype="<f8").tobytes())


def read_screen(path) -> PhaseScreen:
    with open(path, "rb") as fh:
        header = fh.read(_SCREEN_HEADER.size)
        if len(header) < _SCREEN_HEADER.size:
            raise ValueError(f"truncated screen header in {path}")
        magic, version, n, dx, r0, seed, n_sub = _SCREEN_HEADER.unpack(header)
        if magic != _SCREEN_MAGIC:
            raise ValueError(f"bad magic {magic!r} in {path}")
        if version != _SCREEN_VERSION:
            raise ValueError(f"unsupported screen format version {version}")
        raw = fh.read(n * n * 8)
    if len(raw) != n * n * 8:
        raise ValueError(f"truncated screen data in {path}")
    spec = TurbulenceSpec(
        r0=r0, grid=Grid2D(n=n, dx=dx), seed=seed, n_subharmonics=n_sub
    )
    phase = np.frombuffer(raw, dtype="<f8").reshape(n, n).copy()
    return PhaseScreen(spec=spec, phase=phase)
