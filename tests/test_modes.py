"""Grid arithmetic, LG mode sampling, and azimuthal spectra."""

from math import factorial

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from skysim.modes import (
    ComplexField,
    azimuthal_spectrum,
    Grid2D,
    LGMode,
    SamplingError,
    effective_radius,
    lg_field,
    make_grid,
)

W0 = 0.9375e-3


def workhorse_grid(n=256):
    return make_grid(n, 16 * W0)


class TestGrid:
    def test_pitch_arithmetic(self):
        g = make_grid(256, 0.01)
        assert g.dx == pytest.approx(3.90625e-5)
        g2 = make_grid(16, 0.016)
        assert g2.dx == pytest.approx(1e-3)

    def test_coords_centred(self):
        g = make_grid(16, 0.016)
        c = g.coords()
        assert c[8] == 0.0
        assert c[0] == pytest.approx(-8e-3)
        assert c[-1] == pytest.approx(7e-3)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            Grid2D(n=255, dx=1e-5)

    def test_small_n_rejected(self):
        # n = 0 raised ZeroDivisionError: make_grid divided by n first
        for n in (8, 0):
            with pytest.raises(ValueError, match="grid size"):
                make_grid(n, 0.01)

    def test_bad_extent_rejected(self):
        with pytest.raises(ValueError):
            make_grid(64, -1.0)

    @pytest.mark.parametrize(
        "n, dx, match",
        [
            (128.0, 1e-5, "grid size"),
            (128, float("inf"), "pixel pitch"),
            (128, float("nan"), "pixel pitch"),
            (128, 0.0, "pixel pitch"),
            # True was taken as a 1 m pitch; a string raised a TypeError
            # that named no field
            (128, True, "pixel pitch"),
            (128, "1e-5", "pixel pitch"),
        ],
    )
    def test_non_integer_size_or_non_finite_pitch_rejected(self, n, dx, match):
        with pytest.raises(ValueError, match=match):
            Grid2D(n=n, dx=dx)

    def test_numpy_integer_size_accepted(self):
        assert Grid2D(n=np.int64(128), dx=1e-5).extent == pytest.approx(1.28e-3)

    # True was taken as a 1 m waist; a string or None raised a TypeError
    # that named no field
    @pytest.mark.parametrize(
        "w0", [0.0, -W0, float("inf"), float("nan"), True, "1e-3", None]
    )
    def test_bad_mode_waist_rejected(self, w0):
        with pytest.raises(ValueError, match="waist"):
            LGMode(ell=0, w0=w0)

    @pytest.mark.parametrize("ell", [True, 1.5, 2.0])
    def test_non_integer_mode_index_rejected(self, ell):
        # each was accepted; lg_field then failed inside numpy
        with pytest.raises(ValueError, match="mode index ell"):
            LGMode(ell=ell, w0=W0)

    def test_numpy_integer_mode_index_accepted(self):
        mode = LGMode(ell=np.int64(-2), w0=W0)
        assert mode == LGMode(ell=-2, w0=W0)
        grid = make_grid(128, 16 * W0)
        assert np.array_equal(
            lg_field(mode, grid).amplitude,
            lg_field(LGMode(ell=-2, w0=W0), grid).amplitude,
        )


def closed_form_field(mode, grid):
    """Reference sampler: lg_field as it was when each mode was built from
    polar coordinates and the analytic p = 0 normalization."""
    c = grid.coords()
    X, Y = np.meshgrid(c, c, indexing="xy")
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
    return amplitude / np.sqrt(np.sum(np.abs(amplitude) ** 2) * grid.dx**2)


class TestLGField:
    @pytest.mark.parametrize("n", [256, 512])
    def test_matches_closed_form(self, n):
        g = workhorse_grid(n)
        for ell in range(-10, 11):
            mode = LGMode(ell=ell, w0=W0)
            expected = closed_form_field(mode, g)
            error = np.max(np.abs(lg_field(mode, g).amplitude - expected))
            assert error <= 1e-14 * np.max(np.abs(expected)), ell

    @pytest.mark.parametrize("n", [256, 512])
    def test_mirror_modes_exact_conjugates(self, n):
        # effective_channel shares one weight array between a pair and its
        # mirror on the strength of this relation
        g = workhorse_grid(n)
        for ell in range(1, 11):
            plus = lg_field(LGMode(ell=ell, w0=W0), g).amplitude
            minus = lg_field(LGMode(ell=-ell, w0=W0), g).amplitude
            assert np.array_equal(minus.view(float), np.conj(plus).view(float)), ell

    @pytest.mark.parametrize("ell", [0, 1, -1, 2, 3, -3, 5])
    def test_unit_power(self, ell):
        g = workhorse_grid()
        f = lg_field(LGMode(ell=ell, w0=W0), g)
        assert abs(np.sum(np.abs(f.amplitude) ** 2) * g.dx**2 - 1.0) < 1e-6

    def test_unit_power_minimal_grid(self):
        # effective radius of ell=0 exactly 8 px on this grid
        g = Grid2D(n=48, dx=W0 / 8)
        f = lg_field(LGMode(ell=0, w0=W0), g)
        assert abs(np.sum(np.abs(f.amplitude) ** 2) * g.dx**2 - 1.0) < 1e-6

    def test_gaussian_profile(self):
        g = workhorse_grid()
        f = lg_field(LGMode(ell=0, w0=W0), g)
        c = g.n // 2
        on_axis = abs(f.amplitude[c, c])
        at_waist = abs(f.amplitude[c, c + round(W0 / g.dx)])
        assert at_waist / on_axis == pytest.approx(np.exp(-1.0), rel=1e-3)
        assert np.allclose(np.angle(f.amplitude[c, :]) % np.pi, 0.0, atol=1e-12)

    def test_vortex_core_dark(self):
        g = workhorse_grid()
        f = lg_field(LGMode(ell=1, w0=W0), g)
        c = g.n // 2
        assert abs(f.amplitude[c, c]) == 0.0

    @pytest.mark.parametrize("ell", [1, -1, 2, -3])
    def test_phase_winding(self, ell):
        # Winding of the sampled phase around a closed pixel loop at one
        # waist radius; the wrapped-difference sum is quantized, so the
        # tolerance only absorbs float round-off.
        g = workhorse_grid()
        f = lg_field(LGMode(ell=ell, w0=W0), g)
        c = g.n // 2
        rad = round(W0 / g.dx)
        angles = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        ix = c + np.round(rad * np.cos(angles)).astype(int)
        iy = c + np.round(rad * np.sin(angles)).astype(int)
        z = f.amplitude[iy, ix]
        z = np.append(z, z[0])
        steps = np.angle(z[1:] / z[:-1])
        assert abs(steps.sum() - 2 * np.pi * ell) < 1e-6

    def test_ring_radius_matches_profile_maximum(self):
        # Independent check: maximize the radial profile r^3 exp(-r^2/w0^2)
        # numerically and compare the sampled intensity peak against it.
        res = minimize_scalar(
            lambda r: -(r**3) * np.exp(-(r / W0) ** 2),
            bounds=(0.1 * W0, 4 * W0),
            method="bounded",
            options={"xatol": 1e-12},
        )
        r_star = res.x
        assert r_star == pytest.approx(W0 * np.sqrt(1.5), rel=1e-6)

        g = workhorse_grid()
        f = lg_field(LGMode(ell=3, w0=W0), g)
        c = g.n // 2
        row = np.abs(f.amplitude[c, c:])
        r_peak = np.argmax(row) * g.dx
        assert abs(r_peak - r_star) <= g.dx

    def test_too_coarse_rejected(self):
        g = Grid2D(n=16, dx=W0)  # ell=0 radius is one pixel
        with pytest.raises(SamplingError):
            lg_field(LGMode(ell=0, w0=W0), g)

    def test_too_large_rejected(self):
        g = make_grid(256, 2 * W0)  # ell=5 radius beyond extent/3
        with pytest.raises(SamplingError):
            lg_field(LGMode(ell=5, w0=W0), g)


class TestEffectiveRadius:
    def test_values(self):
        assert effective_radius(0, W0) == pytest.approx(W0)
        assert effective_radius(1, W0) == pytest.approx(W0 * np.sqrt(2))
        assert effective_radius(-3, W0) == pytest.approx(W0 * 2)

    def test_bad_waist(self):
        with pytest.raises(ValueError):
            effective_radius(0, 0.0)


class TestOrthonormality:
    def test_cross_overlaps_small(self):
        g = make_grid(512, 16 * W0)
        modes = {
            ell: lg_field(LGMode(ell=ell, w0=W0), g).amplitude
            for ell in range(-5, 6)
        }
        for la in range(-5, 6):
            for lb in range(la, 6):
                ov = np.sum(np.conj(modes[la]) * modes[lb]) * g.dx**2
                if la == lb:
                    assert abs(ov - 1.0) < 1e-6
                else:
                    assert abs(ov) < 1e-3


class TestOamSpectrum:
    def test_azimuthal_classes_complete(self):
        # class powers cover all radial content, so they sum to the field
        # power even for fields that are not p = 0 superpositions
        g = workhorse_grid(128)
        f0 = lg_field(LGMode(ell=0, w0=W0), g)
        X, Y = np.meshgrid(g.coords(), g.coords())
        warped = ComplexField(g, f0.amplitude * np.exp(1j * 5000.0 * (X + Y)))
        spec = azimuthal_spectrum(warped, (-40, 40))
        assert spec.total == pytest.approx(1.0, abs=5e-3)
        assert spec.power(0) < 0.9  # the tilt really does spread the classes

    def test_azimuthal_pure_mode(self):
        g = workhorse_grid(128)
        f = lg_field(LGMode(ell=2, w0=W0), g)
        spec = azimuthal_spectrum(f, (-5, 5))
        assert spec.power(2) > 0.999
        assert spec.power(0) < 1e-4

    def test_azimuthal_undersampled_rejected(self):
        g = workhorse_grid(128)
        f = lg_field(LGMode(ell=0, w0=W0), g)
        with pytest.raises(ValueError, match="undersamples"):
            azimuthal_spectrum(f, (-40, 40), n_angles=64)

    def test_out_of_range_lookup(self):
        g = workhorse_grid(128)
        f = lg_field(LGMode(ell=0, w0=W0), g)
        spec = azimuthal_spectrum(f, (-2, 2))
        with pytest.raises(KeyError):
            spec.power(7)

    # True was read as 1; the others failed inside numpy
    @pytest.mark.parametrize(
        "ell_range, n_angles, match",
        [
            ((0, True), 256, "ell_max must be an integer"),
            ((-2.5, 2), 256, "ell_min must be an integer"),
            ((-2, 2), 64.0, "n_angles must be an integer"),
        ],
    )
    def test_non_integer_range_or_angles_rejected(self, ell_range, n_angles, match):
        f = lg_field(LGMode(ell=1, w0=W0), workhorse_grid(128))
        with pytest.raises(ValueError, match=match):
            azimuthal_spectrum(f, ell_range, n_angles=n_angles)

    # True returned the ell = 1 power; 1.5 raised numpy's IndexError
    @pytest.mark.parametrize("ell", [True, 1.5])
    def test_non_integer_lookup_rejected(self, ell):
        f = lg_field(LGMode(ell=1, w0=W0), workhorse_grid(128))
        spec = azimuthal_spectrum(f, (-2, 2))
        with pytest.raises(ValueError, match="mode index ell must be an integer"):
            spec.power(ell)

    def test_empty_range_rejected(self):
        g = workhorse_grid(128)
        f = lg_field(LGMode(ell=0, w0=W0), g)
        with pytest.raises(ValueError, match="empty"):
            azimuthal_spectrum(f, (3, -3))
