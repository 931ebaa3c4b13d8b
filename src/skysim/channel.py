"""One-sided turbulent channel: modal crosstalk and coincidence counting.

Only one photon of each pair traverses the emulated atmosphere, so the
channel acts on a single transverse field. Its effect on the modal
content is summarised by crosstalk amplitudes

    t(ell_in -> ell_out) = <LG_out | exp(i*phi) | LG_in>

evaluated as pixel sums. Truncating the output index window discards a
little power; the unitarity deficit of the amplitudes out of one input
measures how much, and stays below a percent for the windows used here.

Coincidence counting is modelled as Poisson statistics on top of expected
rates, with accidental coincidences entering at gate * singles_a *
singles_b per second.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from skysim.modes import ComplexField, LGMode, _check_real, lg_field
from skysim.turbulence import PhaseScreen, _check_strength

__all__ = [
    "CountModel",
    "apply_screen",
    "crosstalk_amplitude",
    "effective_channel",
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
    screened = apply_screen(fin, screen).amplitude
    return complex(np.sum(np.conj(fout.amplitude) * screened) * grid.dx**2)


@lru_cache(maxsize=4)
def _pair_weights(ells: tuple[int, int], w0: float, grid) -> np.ndarray:
    """Read-only real 4 x n^2 array [|u0|^2, |u1|^2, Re(u0* u1), Im(u0* u1)]
    of a pair of arm-B modes. The catalog has 4 mirror pairs, which sets
    the bound; at 512^2 each array is 8 MiB."""
    u0, u1 = (lg_field(LGMode(ell=ell, w0=w0), grid).amplitude.ravel() for ell in ells)
    weights = np.empty((4, u0.size))
    weights[0] = u0.real**2 + u0.imag**2
    weights[1] = u1.real**2 + u1.imag**2
    cross = np.conj(u0) * u1
    weights[2] = cross.real
    weights[3] = cross.imag
    weights.flags.writeable = False
    return weights


def effective_channel(state, screen: PhaseScreen | None, w0: float) -> np.ndarray:
    """2x2 channel matrix on the logical basis of the unscreened photon's
    partner. Entry [j, k] couples logical k to logical j through the
    screen; with no screen it is the identity.

    `state` provides ells_b, the two mode indices encoding logical 0 and 1
    on the screened arm. The entries sum conj(u_j) u_k exp(i phi) dx^2
    over the pixels, read off cached mode weights as one real product
    with cos(phi) and sin(phi). For p = 0, LG_-ell = conj(LG_ell), so a
    pair and its mirror (-l0, -l1) share the weights of the smaller key,
    with the sign of Im(u0* u1) flipped for the other. The cos/sin table
    is the screen's own (`PhaseScreen.trig`), computed once per screen
    and shared by every state sent through it.
    """
    if screen is None:
        return np.eye(2, dtype=complex)
    grid = screen.grid
    ells = tuple(state.ells_b)
    key = min(ells, tuple(-ell for ell in ells))
    weights = _pair_weights(key, w0, grid)
    # rows of m: |u0|^2, |u1|^2, Re and Im of u0* u1; columns: cos, sin
    m = (weights @ screen.trig.T) * grid.dx**2
    z00, z11, zre, zim = m[:, 0] + 1j * m[:, 1]
    if key != ells:
        zim = -zim
    return np.array([[z00, zre + 1j * zim], [zre - 1j * zim, z11]])


def survival_probability_analytic(omega: float) -> float:
    """Closed-form fundamental-mode survival against strength omega."""
    _check_strength(omega)
    from scipy.special import iv

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
            _check_real(name, getattr(self, name), zero=True)
        _check_real("gate", self.gate, high=1.0)
        _check_real("integration", self.integration)

    @property
    def accidental_rate(self) -> float:
        """Expected accidental coincidences per second."""
        return self.gate * self.singles_rate_a * self.singles_rate_b

    @property
    def pair_budget(self) -> float:
        """Expected detected pairs over one integration window."""
        return self.pair_rate * self.integration
