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

What depends on neither r0 nor the seed is computed once per grid and
subharmonic depth and held for the last one (`_screen_terms`): the
f**(-11/3) lattice, one n x n float64 array (2 MiB at 512^2), the cell
weights, and E. Each screen scales them in the order a build from
scratch would, so holding them moves no bit. No draw or transform
buffer is held from one screen to the next. A PhaseScreen's phase is a
read-only finite float64 array; its cos/sin table and its SHA-256
digest are computed on first use and held with it, so every state sent
through one screen shares them.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from skysim.modes import Grid2D, SamplingError, _check_integer, _check_real, effective_radius

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
    _check_real("Fried parameter r0", r0, infinite=True)
    out = _PSD_COEFF * r0 ** (-5.0 / 3.0) * _spectral_power(f)
    return out if out.ndim else float(out)


def _spectral_power(f) -> np.ndarray:
    """f**(-11/3) as an array, the frequency part of kolmogorov_psd."""
    return np.asarray(f, dtype=float) ** (-11.0 / 3.0)


def _check_strength(omega: float) -> float:
    return _check_real("turbulence strength", omega, zero=True)


def _check_levels(levels: int) -> int:
    return _check_integer("n_subharmonics", levels, 0, _SUBHARMONIC_LEVELS_MAX)


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
        _check_real("Fried parameter r0", self.r0, infinite=True)
        _check_levels(self.n_subharmonics)
        _check_integer("seed", self.seed, low=0)


@dataclass(frozen=True, eq=False)
class PhaseScreen:
    """One screen: its spec and its phase in radians, a read-only finite
    float64 n x n array. Anything else is refused with ValueError. The
    cos/sin table and the content digest are computed on first use and
    held with the screen, so every state sent through it shares them."""

    spec: TurbulenceSpec
    phase: np.ndarray

    def __post_init__(self):
        n = self.spec.grid.n
        phase = self.phase
        if not isinstance(phase, np.ndarray) or phase.dtype != np.float64:
            raise ValueError(
                f"phase must be a float64 array, got {getattr(phase, 'dtype', type(phase))}"
            )
        if phase.shape != (n, n):
            raise ValueError(
                f"phase shape {phase.shape} does not match grid {n}x{n}"
            )
        # a view of a writeable array could still change under the held
        # cos/sin table and digest
        base = phase
        while isinstance(base, np.ndarray):
            if base.flags.writeable:
                raise ValueError(
                    "phase must be read-only, and not a view of a writeable array"
                )
            base = base.base
        if not np.isfinite(phase).all():
            raise ValueError("phase must be finite")

    @property
    def grid(self) -> Grid2D:
        return self.spec.grid

    @cached_property
    def trig(self) -> np.ndarray:
        """Read-only 2 x n^2 table [cos(phase), sin(phase)] over the pixels
        in row-major order; 4 MiB at 512^2."""
        phase = self.phase.ravel()
        trig = np.empty((2, phase.size))
        np.cos(phase, out=trig[0])
        np.sin(phase, out=trig[1])
        trig.flags.writeable = False
        return trig

    @cached_property
    def digest(self) -> str:
        """SHA-256 hex digest of the phases as little-endian float64, row-major."""
        return hashlib.sha256(np.ascontiguousarray(self.phase, dtype="<f8")).hexdigest()


@lru_cache(maxsize=1)
def _screen_terms(n: int, dx: float, levels: int) -> tuple:
    """The parts of a screen that depend on neither r0 nor the seed.

    For one grid and subharmonic depth: the read-only power f**(-11/3)
    over the FFT lattice (the DC cell at an infinite frequency, so with
    no power); the lattice indices and root weights of the low cells;
    f**(-11/3), dfm**2 and the weight of each subharmonic cell but the
    central ones, with its index in the draw and its place in C; and
    the read-only exponentials E. Only the last key is held: at 512^2
    that is one n x n float64 array (2 MiB) and an n x 3L complex one.
    """
    df = 1.0 / (n * dx)
    f = np.fft.fftfreq(n, 1.0 / n).astype(int) * df
    F = np.hypot(f, f[:, None])
    F[0, 0] = np.inf  # the DC cell carries no power
    power = _spectral_power(F)
    power.flags.writeable = False
    radius = range(-_WEIGHT_RADIUS, _WEIGHT_RADIUS + 1)
    low = [(b % n, a % n, np.sqrt(_base_weight(a, b)))
           for a in radius for b in radius if (a, b) != (0, 0)]
    low_rows, low_cols, low_roots = (np.array(v) for v in zip(*low))
    # One column per subharmonic cell but the central ones, in draw
    # order: its draw index, row (y frequency j*dfm) and column (x
    # frequency i*dfm) in C, and its f**(-11/3), dfm**2 and weight.
    place, factors = [], []
    for m in range(1, levels + 1):
        dfm = df / 3.0**m
        for i in (-1, 0, 1):
            for j in (-1, 0, 1):
                if (i, j) != (0, 0):
                    place.append((9 * (m - 1) + 3 * (i + 1) + j + 1,
                                  3 * m - 2 + j, 3 * m - 2 + i))
                    factors.append((float(_spectral_power(np.hypot(i * dfm, j * dfm))),
                                    dfm**2, _subharmonic_weight(i, j)))
    place = np.array(place, dtype=int).reshape(-1, 3).T
    factors = np.array(factors, dtype=float).reshape(-1, 3).T
    freqs = np.outer(df / 3.0 ** np.arange(1, levels + 1), (-1, 0, 1)).ravel()
    waves = np.exp(2j * np.pi * np.outer(Grid2D(n=n, dx=dx).coords(), freqs))
    waves.flags.writeable = False
    return power, (low_rows, low_cols, low_roots), place, factors, waves


def generate_screen(spec: TurbulenceSpec) -> PhaseScreen:
    """Generate one phase screen in radians.

    The FFT screen is completed by the subharmonic patches, summed as
    one separable matrix product over all levels; the random draws are
    consumed in the documented order (FFT block, then one complex pair
    per patch cell, level by level, central cells included). What does
    not depend on r0 or the seed comes from `_screen_terms`, held for
    the last grid; each screen scales it in the order a fresh build
    would, so the screen is the same bit for bit.

    Raises SamplingError when the grid cannot resolve r0 (r0 < 2*dx);
    such a screen would alias most of its power.
    """
    n, dx, r0 = spec.grid.n, spec.grid.dx, spec.r0
    if r0 < 2 * dx:
        raise SamplingError(
            f"r0={r0:g} m is below two pixels ({2 * dx:g} m); "
            "the grid cannot resolve this turbulence strength"
        )
    levels = spec.n_subharmonics
    power, (low_rows, low_cols, low_roots), place, factors, waves = _screen_terms(
        n, dx, levels
    )
    rng = np.random.default_rng(spec.seed)
    df = 1.0 / (n * dx)
    scale = _PSD_COEFF * r0 ** (-5.0 / 3.0)

    # One real n x n array takes each block of normals in turn, then the
    # amplitude spectrum; the inverse transform's output then takes the
    # two subharmonic products. No buffer outlives the screen. The phase
    # is allocated after the transform: allocated first, it sat lower in
    # the heap, and calibration's mode temporaries then faulted in about
    # half again as many pages per round.
    real = np.empty((n, n))
    gauss = np.empty((n, n), dtype=complex)
    gauss.real = rng.standard_normal(out=real)
    gauss.imag = rng.standard_normal(out=real)
    amp = np.multiply(scale, power, out=real)
    np.sqrt(amp, out=amp)
    amp *= df
    amp[low_rows, low_cols] *= low_roots
    gauss *= amp
    spectrum = np.fft.ifft2(gauss)
    screen = spectrum.real * n
    screen *= n

    # one complex pair per cell, central cells included (module docstring)
    pairs = rng.standard_normal(18 * levels)
    draw, rows, cols = place
    fpow, area, weight = factors
    g = pairs[0::2] + 1j * pairs[1::2]
    coeff = np.zeros((3 * levels, 3 * levels), dtype=complex)
    coeff[rows, cols] = np.sqrt(scale * fpow * area * weight) * g[draw]
    a = waves @ coeff
    cos_part, sin_part = spectrum.view(float).reshape(2, n, n)
    np.matmul(a.real, waves.real.T, out=cos_part)
    np.matmul(a.imag, waves.imag.T, out=sin_part)
    cos_part -= sin_part
    screen += cos_part

    screen -= screen.mean()
    screen.flags.writeable = False
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
    if len({(s.spec.r0, s.spec.grid, s.spec.n_subharmonics) for s in screens}) > 1:
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
    # read-only: the array is a view of the bytes read
    phase = np.frombuffer(raw, dtype="<f8").astype(np.float64, copy=False).reshape(n, n)
    phase.flags.writeable = False
    return PhaseScreen(spec=spec, phase=phase)
