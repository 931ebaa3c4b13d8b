"""One-sided turbulent channel: modal crosstalk and coincidence counting.

Only one photon of each pair traverses the emulated atmosphere, so the
channel acts on a single transverse field. Its effect on the modal
content is summarised by crosstalk amplitudes

    t(ell_in -> ell_out) = <LG_out | exp(i*phi) | LG_in>

evaluated as pixel sums. Truncating the output index window discards a
little power; the unitarity deficit of a crosstalk matrix column measures
how much, and stays below a percent for the windows used here.

Coincidence counting is modelled as Poisson statistics on top of expected
rates, with accidental coincidences entering at gate * singles_a *
singles_b per second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import iv

from skysim.modes import ComplexField, LGMode, lg_field
from skysim.turbulence import PhaseScreen

__all__ = [
    "CrosstalkMatrix",
    "CountModel",
    "apply_screen",
    "crosstalk_amplitude",
    "crosstalk_matrix",
    "effective_channel",
    "projective_probability",
    "survival_probability_analytic",
]

# Damping exponent coefficient of the closed-form fundamental-mode
# survival curve P(0) = (I0(beta) + I1(beta)) * exp(-beta); the curve is
# an annular average of the mode overlap against the phase structure
# function and slightly overestimates the simulated survival.
_SURVIVAL_BETA_COEFF = 1.8025


def apply_screen(field: ComplexField, screen: PhaseScreen) -> ComplexField:
    """Multiply a field by the screen's pure phase factor."""
    if field.grid != screen.grid:
        raise ValueError(
            f"field grid {field.grid} does not match screen grid {screen.grid}"
        )
    return ComplexField(
        grid=field.grid, amplitude=field.amplitude * np.exp(1j * screen.phase)
    )


def crosstalk_amplitude(
    ell_in: int, ell_out: int, screen: PhaseScreen, w0: float
) -> complex:
    """Single scattering amplitude between two azimuthal indices."""
    grid = screen.grid
    fin = lg_field(LGMode(ell=ell_in, w0=w0), grid)
    fout = lg_field(LGMode(ell=ell_out, w0=w0), grid)
    screened = fin.amplitude * np.exp(1j * screen.phase)
    return complex(np.sum(np.conj(fout.amplitude) * screened) * grid.dx**2)


@dataclass
class CrosstalkMatrix:
    """Scattering amplitudes, outputs along rows and inputs along columns.

    amplitude[j, i] couples ells_in[i] to ells_out[j]. Column powers may
    fall short of one when the output window truncates scattered light,
    but can never meaningfully exceed it.
    """

    ells_in: tuple[int, ...]
    ells_out: tuple[int, ...]
    amplitude: np.ndarray

    def __post_init__(self):
        expected = (len(self.ells_out), len(self.ells_in))
        if self.amplitude.shape != expected:
            raise ValueError(
                f"amplitude shape {self.amplitude.shape}, expected {expected}"
            )
        if np.any(self.column_powers() > 1.0 + 1e-9):
            raise ValueError("crosstalk column power exceeds unity")

    def column_powers(self) -> np.ndarray:
        """Total captured power per input mode; 1 minus this is the
        truncation loss of the output window."""
        return np.sum(np.abs(self.amplitude) ** 2, axis=0)

    def entry(self, ell_in: int, ell_out: int) -> complex:
        i = self.ells_in.index(ell_in)
        j = self.ells_out.index(ell_out)
        return complex(self.amplitude[j, i])


def crosstalk_matrix(
    ells_in, ells_out, screen: PhaseScreen, w0: float
) -> CrosstalkMatrix:
    """Scattering amplitudes for all input/output index pairs at once."""
    ells_in = tuple(int(e) for e in ells_in)
    ells_out = tuple(int(e) for e in ells_out)
    grid = screen.grid
    cache: dict[int, np.ndarray] = {}

    def mode(ell):
        if ell not in cache:
            cache[ell] = lg_field(LGMode(ell=ell, w0=w0), grid).amplitude
        return cache[ell]

    phase = np.exp(1j * screen.phase)
    screened = np.stack([mode(e) * phase for e in ells_in])
    outs = np.stack([mode(e) for e in ells_out])
    amp = np.einsum("jxy,ixy->ji", np.conj(outs), screened) * grid.dx**2
    return CrosstalkMatrix(ells_in=ells_in, ells_out=ells_out, amplitude=amp)


def effective_channel(state, screen: PhaseScreen | None, w0: float) -> np.ndarray:
    """2x2 channel matrix on the logical basis of the unscreened photon's
    partner. Entry [j, k] couples logical k to logical j through the
    screen; with no screen it is the identity.

    `state` provides ells_b, the two mode indices encoding logical 0 and 1
    on the screened arm.
    """
    if screen is None:
        return np.eye(2, dtype=complex)
    b0, b1 = state.ells_b
    m = crosstalk_matrix((b0, b1), (b0, b1), screen, w0)
    return m.amplitude


def projective_probability(
    state,
    proj_a,
    proj_b,
    screen: PhaseScreen | None = None,
    w0: float | None = None,
    channel: np.ndarray | None = None,
) -> float:
    """Coincidence probability for one projector pair.

    The state is Schmidt-diagonal in its logical basis, the channel acts
    on photon B only, and the projectors are given as logical-basis kets.
    Pass `channel` to reuse a precomputed 2x2 matrix; otherwise it is
    built from `screen` (which then requires `w0`).
    """
    if channel is None:
        if screen is not None and w0 is None:
            raise ValueError("building the channel from a screen requires w0")
        channel = effective_channel(state, screen, w0)
    c = np.asarray(state.branch_amplitudes)
    alpha = np.asarray(proj_a.ket)
    beta = np.asarray(proj_b.ket)
    # amplitude = sum_k c_k <alpha|k> <beta| T |k>
    amp = np.sum(c * np.conj(alpha) * (np.conj(beta) @ channel))
    return float(np.abs(amp) ** 2)


def survival_probability_analytic(omega: float) -> float:
    """Closed-form fundamental-mode survival against strength omega."""
    if omega < 0:
        raise ValueError(f"turbulence strength must be >= 0, got {omega}")
    beta = _SURVIVAL_BETA_COEFF * omega ** (5.0 / 3.0)
    return float((iv(0, beta) + iv(1, beta)) * np.exp(-beta))


@dataclass(frozen=True)
class CountModel:
    """Rates and timing of the coincidence counter.

    Defaults describe a bright tabletop source: four thousand detected
    pairs per second against fifty thousand singles per arm, counted
    through a two nanosecond gate.
    """

    pair_rate: float = 4000.0
    singles_rate_a: float = 5e4
    singles_rate_b: float = 5e4
    gate: float = 2e-9
    integration: float = 1.0

    def __post_init__(self):
        for name in ("pair_rate", "singles_rate_a", "singles_rate_b"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0 < self.gate < 1:
            raise ValueError(f"gate must be a sub-second positive time, got {self.gate}")
        if self.integration <= 0:
            raise ValueError(f"integration must be positive, got {self.integration}")

    @property
    def accidental_rate(self) -> float:
        """Expected accidental coincidences per second."""
        return self.gate * self.singles_rate_a * self.singles_rate_b

    @property
    def pair_budget(self) -> float:
        """Expected detected pairs over one integration window."""
        return self.pair_rate * self.integration
