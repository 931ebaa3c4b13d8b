"""Tests for the skyrmion-number pipeline.

The closed-form wrapping number is checked against a reference that
never looks at the density matrix's Pauli coefficients: it samples the
position-conditioned Bloch field on the grid, picks a reference point
inside the surface the field traces out (intensity-weighted centroid,
validated by a sphere-coverage test, with per-octant centroids as a
fallback), and sums signed spherical-triangle solid angles over the
grid plaquettes. The reference raises DegenerateFieldError where no
reference point passes its coverage test.
"""

import numpy as np
import pytest

from skysim.modes import LGMode, lg_field, make_grid
from skysim.states import DensityMatrix4, catalog, make_state
from skysim.topology import (
    DegenerateFieldError,
    skyrmion_number,
    spatial_density,
)

W0 = 0.9375e-3
GRID = make_grid(256, 16 * W0)
GRID512 = make_grid(512, 16 * W0)

_N_DIRECTIONS = 128
_COVERAGE_GAP_DEG = 30.0
_MIN_PIXELS = 8
_EXCLUSION_SCALE = 1e-3
_MAX_EXCLUDED = 0.20


def fibonacci_sphere(count: int = _N_DIRECTIONS) -> np.ndarray:
    """Near-uniform unit directions used for the coverage test."""
    i = np.arange(count) + 0.5
    z = 1 - 2 * i / count
    r = np.sqrt(1 - z * z)
    phi = np.pi * (1 + 5**0.5) * i
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


_DIRS = fibonacci_sphere()
_COS_GAP = np.cos(np.deg2rad(_COVERAGE_GAP_DEG))


def solid_angle(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Signed solid angle of spherical triangles over unit vectors."""
    num = np.einsum("...i,...i->...", a, np.cross(b, c))
    den = (
        1.0
        + np.einsum("...i,...i->...", a, b)
        + np.einsum("...i,...i->...", b, c)
        + np.einsum("...i,...i->...", c, a)
    )
    return 2.0 * np.arctan2(num, den)


def bloch_field(rho_r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized Bloch vectors and per-pixel weight (local trace)."""
    b = np.stack(
        [
            2 * np.real(rho_r[..., 0, 1]),
            -2 * np.imag(rho_r[..., 0, 1]),
            np.real(rho_r[..., 0, 0] - rho_r[..., 1, 1]),
        ],
        axis=-1,
    )
    weight = np.real(rho_r[..., 0, 0] + rho_r[..., 1, 1])
    return b, weight


def aperture_mask(grid, state, w0: float) -> np.ndarray:
    """Disk covering both branch modes out to three effective radii."""
    x, y = np.meshgrid(grid.coords(), grid.coords())
    ell_max = max(abs(state.ell_a1), abs(state.ell_a2))
    radius = 3 * w0 * np.sqrt(ell_max + 1)
    return np.hypot(x, y) <= radius


def _coverage_margin(vectors: np.ndarray, center: np.ndarray, eps: float):
    """Worst-direction coverage of the centered, normalized vectors.

    Returns (margin, per-direction max dot) or (-inf, None) when fewer
    than the minimum pixel count survives centering.
    """
    d = vectors - center
    mag = np.linalg.norm(d, axis=-1)
    keep = mag >= eps
    if keep.sum() < _MIN_PIXELS:
        return -np.inf, None
    u = d[keep] / mag[keep, None]
    profile = (u @ _DIRS.T).max(axis=0)
    return float(profile.min()), profile


def pick_centroid(vectors: np.ndarray, weights: np.ndarray, eps: float):
    """Reference point for normalizing the Bloch field.

    Tries the weighted global centroid first; if the centered field
    fails the coverage test, tries the weighted centroid of each sign
    octant and keeps the one with the best coverage margin.

    Returns (center, tag, margin) with tag in "global", "octant",
    "degenerate".
    """
    total = weights.sum()
    center = (
        (vectors * weights[:, None]).sum(axis=0) / total
        if total > 0
        else np.zeros(3)
    )
    margin, _ = _coverage_margin(vectors, center, eps)
    if margin >= _COS_GAP:
        return center, "global", margin
    best, best_margin = None, -np.inf
    for sx in (-1, 1):
        for sy in (-1, 1):
            for sz in (-1, 1):
                sel = (
                    (np.sign(vectors[:, 0]) == sx)
                    & (np.sign(vectors[:, 1]) == sy)
                    & (np.sign(vectors[:, 2]) == sz)
                )
                if sel.sum() < _MIN_PIXELS:
                    continue
                cand = (vectors[sel] * weights[sel, None]).sum(
                    axis=0
                ) / weights[sel].sum()
                m, _ = _coverage_margin(vectors, cand, eps)
                if m > best_margin:
                    best_margin, best = m, cand
    if best is None or best_margin < _COS_GAP:
        return center, "degenerate", max(margin, best_margin)
    return best, "octant", best_margin


def plaquette_sum(unit_field: np.ndarray, keep: np.ndarray) -> float:
    """Total wrapping from two spherical triangles per grid plaquette.

    Only plaquettes with all four corners kept contribute; the split is
    (p00, p10, p11) and (p00, p11, p01) with p10 one step along x.
    """
    corners = keep[:-1, :-1] & keep[:-1, 1:] & keep[1:, 1:] & keep[1:, :-1]
    t1 = solid_angle(unit_field[:-1, :-1], unit_field[:-1, 1:], unit_field[1:, 1:])
    t2 = solid_angle(unit_field[:-1, :-1], unit_field[1:, 1:], unit_field[1:, :-1])
    return float(((t1 + t2) * corners).sum() / (4 * np.pi))


def mode_pair(state, grid, w0):
    """The arm-A modes of the two logical branches, as spatial_density
    projects onto them: the first takes the conjugate of ell_a1."""
    return tuple(
        lg_field(LGMode(ell=ell, w0=w0), grid).amplitude
        for ell in (-state.ell_a1, state.ell_a2)
    )


def through_channel(rho, channel):
    """rho after a 2x2 channel on arm B, trace-renormalized."""
    e = np.asarray(channel, dtype=complex)
    if e.shape != (2, 2):
        raise ValueError(f"channel must be 2x2, got {e.shape}")
    k = np.kron(np.eye(2), e)
    out = k @ rho.matrix @ k.conj().T
    return DensityMatrix4(out / np.trace(out).real)


def lattice_number(rho, state, grid, w0) -> float:
    """Reference wrapping number: plaquette sum about a validated centroid."""
    rho_r = spatial_density(rho, state, grid, w0)
    b, weight = bloch_field(rho_r)
    ap = aperture_mask(grid, state, w0)
    mag = np.linalg.norm(b, axis=-1)
    peak = mag[ap].max()
    if peak <= 0:
        raise DegenerateFieldError("Bloch field vanishes over the whole aperture")
    eps = _EXCLUSION_SCALE * peak
    center, tag, margin = pick_centroid(b[ap], weight[ap], eps)
    if tag == "degenerate":
        raise DegenerateFieldError(
            f"no reference point covers the sphere (best margin {margin:.3f})"
        )
    shifted = b - center
    dist = np.linalg.norm(shifted, axis=-1)
    keep = ap & (dist >= eps)
    excluded = 1.0 - keep[ap].mean()
    if excluded > _MAX_EXCLUDED:
        raise DegenerateFieldError(
            f"{excluded:.1%} of aperture pixels sit at the reference point"
        )
    unit = np.where(
        keep[..., None], shifted / np.maximum(dist, 1e-300)[..., None], 0.0
    )
    return plaquette_sum(unit, keep)


def number_for(state, n=256, channel=None, **kwargs):
    rho = DensityMatrix4.from_pure(state)
    if channel is not None:
        rho = through_channel(rho, channel)
    grid = GRID if n == 256 else make_grid(n, 16 * W0)
    return skyrmion_number(rho, state, grid, W0, **kwargs)


# Two fixed partner-arm channels; neither is unitary.
CHANNELS = (
    np.array([[0.9 + 0.1j, 0.35 - 0.2j], [-0.15 + 0.3j, 0.75 + 0.05j]]),
    np.array([[0.4 - 0.3j, 1.1 + 0.2j], [0.8 + 0.1j, -0.2 + 0.6j]]),
)


def werner(state, p):
    return DensityMatrix4(
        p * DensityMatrix4.from_pure(state).matrix + (1 - p) * np.eye(4) / 4
    )


class TestGeometryHelpers:
    def test_solid_angle_octant(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        c = np.array([0.0, 0.0, 1.0])
        assert solid_angle(a, b, c) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_solid_angle_orientation_flips_sign(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        c = np.array([0.0, 0.0, 1.0])
        assert solid_angle(a, c, b) == pytest.approx(-np.pi / 2, abs=1e-12)

    def test_aperture_radius_scales_with_mode_order(self):
        small = aperture_mask(GRID, make_state(0, 1), W0)
        large = aperture_mask(GRID, make_state(2, 3), W0)
        assert large.sum() > small.sum()

    def test_mode_pair_windings(self):
        state = make_state(0, 3)
        u0, u1 = mode_pair(state, GRID, W0)
        assert abs(u0[128, 128]) > 0
        assert abs(u1[128, 128]) == pytest.approx(0.0, abs=1e-30)


class TestSpatialDensity:
    def test_shape_and_hermiticity(self):
        state = make_state(0, 1)
        rho_r = spatial_density(DensityMatrix4.from_pure(state), state, GRID, W0)
        assert rho_r.shape == (256, 256, 2, 2)
        assert np.allclose(rho_r, np.conj(np.swapaxes(rho_r, -1, -2)), atol=1e-18)

    def test_weight_is_branch_intensity_mix(self):
        state = make_state(0, 1)
        rho_r = spatial_density(DensityMatrix4.from_pure(state), state, GRID, W0)
        _, weight = bloch_field(rho_r)
        u0, u1 = mode_pair(state, GRID, W0)
        expected = 0.5 * (np.abs(u0) ** 2 + np.abs(u1) ** 2)
        assert np.allclose(weight, expected, atol=1e-12)


class TestSkyrmionNumbers:
    def test_full_catalog_hits_targets(self):
        for name, state in catalog().items():
            target = sum(state.ells_a)
            n = number_for(state)
            assert n == pytest.approx(target, abs=0.02), name

    def test_details_describe_the_ellipsoid(self):
        _, details = number_for(make_state(0, 1), return_details=True)
        assert details["estimator"] == "ellipsoid"
        assert details["det"] < 0
        assert 0 < details["margin"] <= 1
        assert details["center"].shape == (3,)

    def test_grid_convergence(self):
        for state in (make_state(0, 1), make_state(2, 3)):
            coarse = number_for(state, n=256)
            fine = number_for(state, n=512)
            assert abs(fine - coarse) <= 0.01

    def test_relative_phase_leaves_number_invariant(self):
        base = number_for(make_state(0, 1))
        for phase in (-np.pi / 2, np.pi / 3, 0.9 * np.pi):
            assert number_for(make_state(0, 1, phase)) == pytest.approx(
                base, abs=1e-6
            )

    def test_partner_arm_channel_leaves_number_invariant(self):
        e = CHANNELS[0]
        for state in (make_state(0, 1), make_state(2, 3)):
            base = number_for(state)
            turned = number_for(state, channel=e)
            assert turned == pytest.approx(base, abs=1e-3)

    def test_maximally_mixed_state_is_degenerate(self):
        state = make_state(0, 1)
        rho = DensityMatrix4(np.eye(4, dtype=complex) / 4)
        with pytest.raises(DegenerateFieldError):
            skyrmion_number(rho, state, GRID, W0)

    @pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
    def test_product_states_are_degenerate(self, mixed):
        rng = np.random.default_rng(5)
        sides = []
        for _ in range(2):
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            if not mixed:
                g[:, 1] = 0
            m = g @ g.conj().T
            sides.append(m / np.trace(m).real)
        rho = DensityMatrix4(np.kron(*sides))
        with pytest.raises(DegenerateFieldError):
            skyrmion_number(rho, make_state(0, 1), GRID, W0)

    def test_reversed_ellipsoid_gives_opposite_sign(self):
        # (I + t sum_i sigma_i x sigma_i) / 4 is a state for t <= 1/3; its
        # steering ellipsoid keeps the orientation the Bell states reverse.
        state = make_state(0, 2)
        paulis = (
            np.array([[0, 1], [1, 0]]),
            np.array([[0, -1j], [1j, 0]]),
            np.array([[1, 0], [0, -1]]),
        )
        t = 0.2
        rho = DensityMatrix4(
            (np.eye(4) + t * sum(np.kron(s, s) for s in paulis)) / 4
        )
        number, details = skyrmion_number(rho, state, GRID, W0, return_details=True)
        assert details["det"] == pytest.approx(t**3, rel=1e-12)
        assert number == -2.0
        assert lattice_number(rho, state, GRID, W0) == pytest.approx(-2.0, abs=0.02)

    def test_rotated_unit_field_same_wrapping(self):
        state = make_state(0, 2)
        rho = DensityMatrix4.from_pure(state)
        rho_r = spatial_density(rho, state, GRID, W0)
        b, _ = bloch_field(rho_r)
        mag = np.linalg.norm(b, axis=-1)
        keep = mag > 1e-3 * mag.max()
        unit = np.where(keep[..., None], b / np.maximum(mag, 1e-300)[..., None], 0.0)
        base = plaquette_sum(unit, keep)
        angle = 0.7
        rot = np.array(
            [
                [np.cos(angle), 0, np.sin(angle)],
                [0, 1, 0],
                [-np.sin(angle), 0, np.cos(angle)],
            ]
        )
        assert plaquette_sum(unit @ rot.T, keep) == pytest.approx(base, abs=1e-10)


def test_closed_form_agrees_with_lattice_reference():
    """Wherever the 512² lattice returns a number, the closed form matches."""
    compared = 0
    for name, state in catalog().items():
        pure = DensityMatrix4.from_pure(state)
        cases = [pure, *(through_channel(pure, e) for e in CHANNELS)]
        cases.append(werner(state, 0.6))
        for rho in cases:
            number = skyrmion_number(rho, state, GRID512, W0)
            try:
                reference = lattice_number(rho, state, GRID512, W0)
            except DegenerateFieldError:
                continue
            compared += 1
            assert number == pytest.approx(reference, abs=0.02), name
    # at most one case in ten may be skipped by the reference
    assert compared >= 36
