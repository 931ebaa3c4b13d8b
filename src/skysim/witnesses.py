"""Entanglement and correlation witnesses for two-qubit states.

Includes the spin-flip concurrence, Uhlmann fidelity, purity, and the
measurement-based quantum discord. Discord needs a maximization over
projective measurements on photon B, a function of one unit vector on
the hemisphere (Ali, Rau & Alber, PRA 81, 042105 (2010); Girolami &
Adesso, PRA 83, 052108 (2011)); that is done with a fixed grid and
zoom search in numpy. The dense-grid and multi-start SLSQP
cross-checks live in the test suite.

All entropies are in bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from skysim.states import DensityMatrix4, partial_trace

__all__ = [
    "WitnessReport",
    "concurrence",
    "fidelity",
    "purity",
    "von_neumann_entropy",
    "mutual_information",
    "classical_correlation",
    "discord",
    "evaluate_witnesses",
]

_SIGMA_Y = np.array([[0, -1j], [1j, 0]])
_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y)

# Each zoom level is a 7x7 sub-grid at a third of the previous step, so it
# spans one previous step either side of a kept point. Keeping 4 points
# instead of 8 trailed a multi-start SLSQP by up to 8.7e-7 on an optimum
# near the pole, where the grid in (theta, phi) is strongly anisotropic.
_GRID_SHAPE = (16, 64)
_ZOOM_LEVELS = 16
_ZOOM_KEEP = 8
_ZOOM_OFFSETS = np.arange(-3, 4)


def _as_matrix(rho) -> np.ndarray:
    if isinstance(rho, DensityMatrix4):
        return rho.matrix
    return np.asarray(rho, dtype=complex)


def concurrence(rho) -> float:
    """Wootters concurrence; 0 for separable, 1 for Bell states.

    The lambda_i are the singular values of W^T (sy x sy) W with
    rho = W W^dagger. They equal the square roots of the eigenvalues of
    rho times its spin flip, but where they vanish (three of them for a
    pure state) they come out at rounding level, not at the square root
    of rounding (~1e-8) as those square roots would.
    """
    w, v = np.linalg.eigh(_as_matrix(rho))
    root = v * np.sqrt(np.clip(w, 0.0, None))
    lam = np.linalg.svd(root.T @ _FLIP @ root, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def _sqrtm_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity, squared-overlap convention (1 for identical states).

    Evaluated as the squared trace norm of sqrt(rho) sqrt(sigma), which
    is the same quantity as the usual nested-root formula but keeps the
    two arguments on an equal numerical footing.
    """
    a, b = _as_matrix(rho), _as_matrix(sigma)
    singulars = np.linalg.svd(_sqrtm_psd(a) @ _sqrtm_psd(b), compute_uv=False)
    return float(min(1.0, singulars.sum() ** 2))


def purity(rho) -> float:
    m = _as_matrix(rho)
    return float(np.real(np.trace(m @ m)))


def von_neumann_entropy(rho) -> float:
    """Entropy in bits of a Hermitian positive semidefinite matrix."""
    w = np.linalg.eigvalsh(_as_matrix(rho))
    w = np.clip(w, 0.0, None)
    nz = w[w > 1e-15]
    return float(-np.sum(nz * np.log2(nz)))


def mutual_information(rho) -> float:
    dm = rho if isinstance(rho, DensityMatrix4) else DensityMatrix4(_as_matrix(rho))
    sa = von_neumann_entropy(partial_trace(dm, "A"))
    sb = von_neumann_entropy(partial_trace(dm, "B"))
    return sa + sb - von_neumann_entropy(dm.matrix)


def _measurement_kets(theta, phi):
    """Orthonormal measurement pair on the Bloch sphere, vectorized."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ct, st = np.cos(theta / 2), np.sin(theta / 2)
    e = np.exp(1j * phi)
    m0 = np.stack([ct * np.ones_like(e), e * st], axis=-1)
    m1 = np.stack([st * np.ones_like(e), -e * ct], axis=-1)
    return m0, m1


def _branch_entropy(reshaped, kets):
    """p_k * S(rho_A|k) for a batch of measurement kets, shape (G, 2)."""
    sub = np.einsum("gb,abcd,gd->gac", kets.conj(), reshaped, kets)
    p = np.real(sub[:, 0, 0] + sub[:, 1, 1])
    half = 0.5 * np.real(sub[:, 0, 0] - sub[:, 1, 1])
    gap = np.sqrt(half**2 + np.abs(sub[:, 0, 1]) ** 2)
    lam = np.stack([p / 2 + gap, p / 2 - gap], axis=-1)
    lam = np.clip(lam, 0.0, None)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = np.where(p[:, None] > 1e-15, lam / p[:, None], 0.0)
        terms = np.where(scaled > 1e-15, scaled * np.log2(scaled), 0.0)
    return -np.where(p > 1e-15, p, 0.0) * terms.sum(axis=-1)


def _objective_batch(rho4, theta, phi, entropy_a):
    """Classical correlation J(theta, phi) over flat angle arrays."""
    reshaped = rho4.reshape(2, 2, 2, 2)
    m0, m1 = _measurement_kets(theta, phi)
    cond = _branch_entropy(reshaped, m0) + _branch_entropy(reshaped, m1)
    return entropy_a - cond


def classical_correlation(rho, return_diagnostics: bool = False):
    """One-way classical correlation, maximized over B measurements.

    Measuring along n or -n gives the same outcomes, so the search runs
    over the hemisphere n_z >= 0: a 16x64 midpoint grid gives the floor
    `grid_max`, and 16 zoom levels refine around its 8 best points. The
    zoom may step past the hemisphere edge or the pole, where the
    objective is still valid. Every step is fixed, so the value is a
    deterministic function of rho and never below the grid floor. The
    argmax is not reported: it is flat on pure states and moves far
    under rounding-level changes of rho.
    """
    dm = rho if isinstance(rho, DensityMatrix4) else DensityMatrix4(_as_matrix(rho))
    rho4 = dm.matrix
    entropy_a = von_neumann_entropy(partial_trace(dm, "A"))

    n_t, n_p = _GRID_SHAPE
    d_theta, d_phi = 0.5 * np.pi / n_t, 2 * np.pi / n_p
    tt, pp = np.meshgrid(
        (np.arange(n_t) + 0.5) * d_theta, (np.arange(n_p) + 0.5) * d_phi, indexing="ij"
    )
    theta, phi = tt.ravel(), pp.ravel()
    vals = _objective_batch(rho4, theta, phi, entropy_a)
    grid_max = float(vals.max())

    off_t, off_p = np.meshgrid(_ZOOM_OFFSETS, _ZOOM_OFFSETS, indexing="ij")
    off_t, off_p = off_t.ravel(), off_p.ravel()
    for _ in range(_ZOOM_LEVELS):
        best = np.argsort(-vals, kind="stable")[:_ZOOM_KEEP]
        d_theta, d_phi = d_theta / 3, d_phi / 3
        theta = (theta[best, None] + off_t * d_theta).ravel()
        phi = (phi[best, None] + off_p * d_phi).ravel()
        vals = _objective_batch(rho4, theta, phi, entropy_a)
    # the zero offset re-evaluates each kept point, so the last level
    # holds the best value seen
    best_val = float(vals.max())

    if return_diagnostics:
        return best_val, {"grid_max": grid_max}
    return best_val


def _discord_from(info: float, j: float) -> float:
    d = info - j
    if d < -1e-8:
        raise RuntimeError(
            f"classical correlation exceeded mutual information by {-d:.3e}; "
            "the measurement search found an inconsistent maximum"
        )
    return max(0.0, d)


def discord(rho) -> float:
    """Quantum discord I - J with B-side measurements, clamped at zero."""
    return _discord_from(mutual_information(rho), classical_correlation(rho))


@dataclass
class WitnessReport:
    """All scalar witnesses for one reconstructed state."""

    concurrence: float
    fidelity: float
    purity: float
    mutual_information: float
    classical_correlation: float
    discord: float
    discord_normalized: float
    diagnostics: dict = field(default_factory=dict)


def evaluate_witnesses(
    rho, target, discord_reference: float | None = None
) -> WitnessReport:
    """Score a state against its ideal target.

    discord_reference is the discord of the corresponding unperturbed
    state; when it is degenerate (below 1e-6) the normalized field falls
    back to the raw discord and the report is flagged.
    """
    c = concurrence(rho)
    f = fidelity(rho, target)
    g = purity(rho)
    info = mutual_information(rho)
    j, diag = classical_correlation(rho, return_diagnostics=True)
    d = _discord_from(info, j)
    if discord_reference is not None and discord_reference >= 1e-6:
        d_norm = d / discord_reference
    else:
        d_norm = d
        if discord_reference is not None:
            diag["normalization_degenerate"] = True
    return WitnessReport(
        concurrence=c,
        fidelity=f,
        purity=g,
        mutual_information=info,
        classical_correlation=j,
        discord=d,
        discord_normalized=d_norm,
        diagnostics=diag,
    )
