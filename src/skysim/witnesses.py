"""Entanglement and correlation witnesses for two-qubit states.

Includes the spin-flip concurrence, Uhlmann fidelity, purity, and the
measurement-based quantum discord. Discord needs a maximization over
projective measurements on photon B, a function of one unit vector on
the hemisphere (Ali, Rau & Alber, PRA 81, 042105 (2010); Girolami &
Adesso, PRA 83, 052108 (2011)); that is done with a fixed grid and
zoom search in numpy. The dense-grid and multi-start SLSQP
cross-checks live in the test suite.

The objective is real 3-vector arithmetic on the Pauli components of
rho (`states.pauli_components`): the Bloch vectors a and b of arms A and
B and the correlation matrix T. Measuring B along +n or -n happens with
probability p(+-) = (1 +- b.n)/2 (the 1 is read as tr rho) and leaves A
with Bloch vector (a +- T n)/(2 p(+-)), so

    J(n) = S(A) - sum_(+-) p(+-) h(|a +- T n| / (2 p(+-))),

where h(x) is the entropy of a qubit whose Bloch vector has length x.
An outcome of zero probability adds nothing.

All entropies are in bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from skysim.states import DensityMatrix4, partial_trace, pauli_components

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


def _qubit_entropy(x):
    """Entropy in bits of a qubit whose Bloch vector has length x."""
    x = np.clip(x, 0.0, 1.0)
    lam = np.stack([(1 + x) / 2, (1 - x) / 2])
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(lam > 1e-15, lam * np.log2(lam), 0.0)
    return -terms.sum(axis=0)


def _objective(r, theta, phi, entropy_a):
    """Classical correlation J(theta, phi) over flat angle arrays, from the
    Pauli components r of rho; both outcomes +-n as one stacked array.

    n = (sin theta cos phi, sin theta sin phi, cos theta) is the axis of
    the measurement on B; see the module docstring for the formula.
    """
    a, b, corr = r[1:, 0], r[0, 1:], r[1:, 1:]
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st = np.sin(theta)
    n = np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)
    bn, tn = n @ b, n @ corr.T
    sign = np.array([1.0, -1.0])[:, None]
    p = (r[0, 0] + sign * bn) / 2
    length = np.linalg.norm(a + sign[..., None] * tn, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.where(p > 1e-15, length / (2 * p), 0.0)
    cond = p * _qubit_entropy(x)
    return entropy_a - (cond[0] + cond[1])


def _objective_batch(rho4, theta, phi, entropy_a):
    """_objective of the density matrix rho4."""
    return _objective(pauli_components(rho4), theta, phi, entropy_a)


def classical_correlation(rho) -> float:
    """One-way classical correlation, maximized over B measurements.

    Measuring along n or -n gives the same outcomes, so the search runs
    over the hemisphere n_z >= 0: 16 zoom levels refine around the 8
    best points of a 16x64 midpoint grid. The zoom may step past the
    hemisphere edge or the pole, where the objective is still valid.
    Every step is fixed, so the value is a deterministic function of rho
    and never below the grid floor, the best value on that grid. The
    argmax is not reported: it is flat on pure states and moves far
    under rounding-level changes of rho.
    """
    dm = rho if isinstance(rho, DensityMatrix4) else DensityMatrix4(_as_matrix(rho))
    r = pauli_components(dm.matrix)
    entropy_a = von_neumann_entropy(partial_trace(dm, "A"))

    n_t, n_p = _GRID_SHAPE
    d_theta, d_phi = 0.5 * np.pi / n_t, 2 * np.pi / n_p
    tt, pp = np.meshgrid(
        (np.arange(n_t) + 0.5) * d_theta, (np.arange(n_p) + 0.5) * d_phi, indexing="ij"
    )
    theta, phi = tt.ravel(), pp.ravel()
    vals = _objective(r, theta, phi, entropy_a)

    off_t, off_p = np.meshgrid(_ZOOM_OFFSETS, _ZOOM_OFFSETS, indexing="ij")
    off_t, off_p = off_t.ravel(), off_p.ravel()
    for _ in range(_ZOOM_LEVELS):
        best = np.argsort(-vals, kind="stable")[:_ZOOM_KEEP]
        d_theta, d_phi = d_theta / 3, d_phi / 3
        theta = (theta[best, None] + off_t * d_theta).ravel()
        phi = (phi[best, None] + off_p * d_phi).ravel()
        vals = _objective(r, theta, phi, entropy_a)
    # the zero offset re-evaluates each kept point, so the last level
    # holds the best value seen
    return float(vals.max())


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
    """All scalar witnesses for one reconstructed state.

    Its fields, in order, are the witness columns of a sweep's tables.
    """

    concurrence: float
    fidelity: float
    purity: float
    mutual_information: float
    classical_correlation: float
    discord: float


def evaluate_witnesses(rho, target) -> WitnessReport:
    """Score a state against its ideal target."""
    c = concurrence(rho)
    f = fidelity(rho, target)
    g = purity(rho)
    info = mutual_information(rho)
    j = classical_correlation(rho)
    return WitnessReport(
        concurrence=c,
        fidelity=f,
        purity=g,
        mutual_information=info,
        classical_correlation=j,
        discord=_discord_from(info, j),
    )
