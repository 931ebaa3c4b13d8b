"""Skyrmion number of the biphoton polarization-like texture.

The two logical branches carry distinct spatial modes, so conditioning
the two-qubit state on transverse position leaves a position-dependent
2x2 density matrix whose Bloch vector field wraps the sphere an integer
number of times. That wrapping number is the topological observable.

It is computed in closed form from the 4x4 density matrix. Write
rho = (I + a.sigma x I + I x b.sigma + sum T_ij sigma_i x sigma_j) / 4.
Conditioning arm A on the mode pair at position r projects it onto a
pure state with Bloch direction n(r), and n(r) covers the sphere with
degree ell_a1 + ell_a2 over the transverse plane. Arm B is then left
with the Bloch vector beta(n) = (b + T^T n) / (1 + a.n), which traces
out the quantum steering ellipsoid (Jevtic, Pusey, Jennings & Rudolph,
PRL 113, 020402 (2014)) with centre c = (b - T^T a) / (1 - |a|^2).
Seen from c, the texture therefore wraps the sphere
-(ell_a1 + ell_a2) * sign det(T^T - c a^T) times: the ellipsoid's
orientation either keeps or reverses the mode pair's degree. A pure
state through an invertible partner-arm channel keeps it (beta is then
a Moebius map of the sphere); an averaged channel can reverse it.
The sign convention agrees with a lattice sum of spherical-triangle
solid angles over the texture, which the test suite keeps as its
reference.
"""

from __future__ import annotations

import numpy as np

from skysim.modes import Grid2D, LGMode, lg_field
from skysim.states import BipartitePureState, DensityMatrix4, pauli_components

__all__ = [
    "DegenerateFieldError",
    "spatial_density",
    "skyrmion_number",
]

# Volumes and norms at this level are rounding, not a physical ellipsoid.
_ROUNDING = 1e-12


class DegenerateFieldError(RuntimeError):
    """The Bloch field does not define a sphere wrapping.

    Raised when the steering ellipsoid has zero volume, as for the
    maximally mixed state and for product states.
    """


def spatial_density(
    rho: DensityMatrix4, state: BipartitePureState, grid: Grid2D, w0: float
) -> np.ndarray:
    """Position-conditioned 2x2 density, shape (n, n, 2, 2).

    Arm A is projected onto the state's mode pair at each pixel; arm B
    is left as it is. Branch 1 maps to the conjugate-index mode, so the
    pair differ by ell_a1 + ell_a2 units of azimuthal winding, the
    wrapping target. The lattice reference of the test suite samples
    the Bloch field from this.
    """
    r4 = rho.matrix.reshape(2, 2, 2, 2)
    modes = np.stack(
        [lg_field(LGMode(ell=ell, w0=w0), grid).amplitude
         for ell in (-state.ell_a1, state.ell_a2)],
        axis=-1,
    )
    return np.einsum("...i,...m,ijmn->...jn", modes, modes.conj(), r4)


def skyrmion_number(
    rho: DensityMatrix4,
    state: BipartitePureState,
    grid: Grid2D | None = None,
    w0: float | None = None,
    return_details: bool = False,
):
    """Sphere-wrapping number of the position-conditioned Bloch field.

    Exact and independent of the sampling: `grid` and `w0` may be given
    for the texture they describe but are not read. A channel on arm B
    belongs in `rho` already. A number of the opposite sign to the
    target is an orientation reversal of the state's steering
    ellipsoid, not an error.

    Raises DegenerateFieldError when the steering ellipsoid has zero
    volume. With return_details=True also returns a dict with the
    estimator tag, det(T^T - c a^T), the margin 1 - |n_c| and the centre
    c. Here n_c is the arm-A Bloch vector whose conditional state on
    arm B sits at c; the margin is 1 when n_c is the centre of the
    Bloch ball and 0 when it reaches the sphere.
    """
    r = pauli_components(rho.matrix)
    a, b, t = r[1:, 0], r[0, 1:], r[1:, 1:]
    purity_gap = 1.0 - a @ a
    if purity_gap <= _ROUNDING:
        raise DegenerateFieldError("arm A is pure: the steering ellipsoid is a point")
    center = (b - t.T @ a) / purity_gap
    shape = t.T - np.outer(center, a)
    det = float(np.linalg.det(shape))
    if abs(det) <= _ROUNDING:
        raise DegenerateFieldError(
            f"steering ellipsoid has zero volume (det {det:.3g})"
        )
    number = float(-(state.ell_a1 + state.ell_a2) * np.sign(det))
    if not return_details:
        return number
    details = {
        "estimator": "ellipsoid",
        "det": det,
        "margin": float(1.0 - np.linalg.norm(np.linalg.solve(shape, center - b))),
        "center": center,
    }
    return number, details
