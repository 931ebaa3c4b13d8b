"""Spectrum arithmetic, screen statistics, and the structure-function law."""

import numpy as np
import pytest

from skysim.modes import Grid2D, SamplingError, make_grid
from skysim.turbulence import (
    _WEIGHT_RADIUS,
    PhaseScreen,
    TurbulenceSpec,
    _base_weight,
    _subharmonic_weight,
    generate_screen,
    kolmogorov_psd,
    omega_to_fried,
    phase_structure_theory,
    read_screen,
    structure_function,
    write_screen,
)

W0 = 0.9375e-3


class TestPsd:
    def test_value(self):
        expected = 0.023 * 0.01 ** (-5 / 3) * 100.0 ** (-11 / 3)
        assert kolmogorov_psd(100.0, 0.01) == pytest.approx(expected, rel=1e-12)

    def test_frequency_scaling(self):
        ratio = kolmogorov_psd(2.0, 0.01) / kolmogorov_psd(1.0, 0.01)
        assert ratio == pytest.approx(2.0 ** (-11 / 3), rel=1e-12)

    def test_fried_scaling(self):
        ratio = kolmogorov_psd(1.0, 0.005) / kolmogorov_psd(1.0, 0.01)
        assert ratio == pytest.approx(2.0 ** (5 / 3), rel=1e-12)

    def test_infinite_r0_is_quiet(self):
        assert kolmogorov_psd(1.0, np.inf) == 0.0

    def test_infinite_frequency_is_quiet(self):
        # generate_screen gives the DC cell this frequency
        assert kolmogorov_psd(np.inf, 0.01) == 0.0

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValueError):
            kolmogorov_psd(0.0, 0.01)
        with pytest.raises(ValueError):
            kolmogorov_psd(np.array([1.0, -2.0]), 0.01)


class TestOmegaToFried:
    def test_ell_zero(self):
        assert omega_to_fried(1.0, 0, W0) == pytest.approx(2 * W0)

    def test_higher_mode(self):
        # effective radius doubles at |ell| = 3, so r0 doubles too
        assert omega_to_fried(2.0, 3, W0) == pytest.approx(2 * W0)

    def test_zero_strength(self):
        assert omega_to_fried(0.0, 0, W0) == np.inf

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            omega_to_fried(-0.5, 0, W0)


def spec128(seed, r0_px=16.0, n_sub=5):
    grid = Grid2D(n=128, dx=1.0)
    return TurbulenceSpec(r0=r0_px, grid=grid, seed=seed, n_subharmonics=n_sub)


class TestGenerateScreen:
    def test_deterministic(self):
        a = generate_screen(spec128(42))
        b = generate_screen(spec128(42))
        assert np.array_equal(a.phase, b.phase)

    def test_seed_sensitivity(self):
        a = generate_screen(spec128(1))
        b = generate_screen(spec128(2))
        assert not np.allclose(a.phase, b.phase)

    def test_spatial_mean_removed(self):
        s = generate_screen(spec128(7))
        assert abs(s.phase.mean()) < 1e-12 * s.phase.std()

    def test_fried_scaling_law(self):
        # Phase amplitudes scale as r0**(-5/6); halving the variance-rate
        # exponent base means r0 -> r0 * 2**(-3/5) multiplies the screen
        # by exactly sqrt(2) for the same seed.
        s1 = generate_screen(spec128(11, r0_px=16.0))
        s2 = generate_screen(spec128(11, r0_px=16.0 * 2 ** (-3 / 5)))
        scale = np.abs(s1.phase).max()
        assert np.allclose(s2.phase, np.sqrt(2) * s1.phase, atol=1e-10 * scale)

    def test_ensemble_mean_near_zero(self):
        screens = np.stack(
            [generate_screen(spec128(3000 + k, n_sub=2)).phase for k in range(200)]
        )
        pixel_mean = screens.mean(axis=0)
        pixel_sig = screens.std(axis=0) / np.sqrt(200)
        frac_outside = np.mean(np.abs(pixel_mean) > 3 * pixel_sig)
        assert frac_outside < 0.015

    def test_unresolvable_r0_rejected(self):
        with pytest.raises(SamplingError):
            generate_screen(spec128(0, r0_px=1.5))

    def test_infinite_r0_gives_flat_screen(self):
        s = generate_screen(spec128(5, r0_px=np.inf))
        assert np.all(s.phase == 0.0)

    def test_bad_spec_rejected(self):
        grid = Grid2D(n=128, dx=1.0)
        with pytest.raises(ValueError):
            TurbulenceSpec(r0=-1.0, grid=grid, seed=0)
        with pytest.raises(ValueError):
            TurbulenceSpec(r0=1.0, grid=grid, seed=0, n_subharmonics=9)
        with pytest.raises(ValueError):
            TurbulenceSpec(r0=1.0, grid=grid, seed=-1)

    def test_levels_must_be_integers(self):
        grid = Grid2D(n=128, dx=1.0)
        with pytest.raises(ValueError, match="n_subharmonics must be an integer"):
            TurbulenceSpec(r0=1.0, grid=grid, seed=0, n_subharmonics=2.5)
        spec = TurbulenceSpec(r0=1.0, grid=grid, seed=0, n_subharmonics=np.int64(3))
        assert spec.n_subharmonics == 3


def loop_screen(spec):
    """Reference generator: the subharmonic patches summed one full-grid
    complex exponential per cell, in the documented draw order."""
    n, dx, r0 = spec.grid.n, spec.grid.dx, spec.r0
    rng = np.random.default_rng(spec.seed)
    df = 1.0 / (n * dx)

    idx = np.fft.fftfreq(n, 1.0 / n).astype(int)
    M1, M2 = np.meshgrid(idx, idx, indexing="xy")
    F = np.hypot(M1 * df, M2 * df)
    amp = np.zeros_like(F)
    nz = F > 0
    amp[nz] = np.sqrt(kolmogorov_psd(F[nz], r0)) * df
    for a in range(-_WEIGHT_RADIUS, _WEIGHT_RADIUS + 1):
        for b in range(-_WEIGHT_RADIUS, _WEIGHT_RADIUS + 1):
            if (a, b) != (0, 0):
                amp[b % n, a % n] *= np.sqrt(_base_weight(a, b))

    gauss = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    screen = np.real(np.fft.ifft2(gauss * amp)) * n * n

    coords = (np.arange(n) - n / 2) * dx
    X, Y = np.meshgrid(coords, coords, indexing="xy")
    for m in range(1, spec.n_subharmonics + 1):
        dfm = df / 3.0**m
        for i in (-1, 0, 1):
            for j in (-1, 0, 1):
                g = rng.standard_normal() + 1j * rng.standard_normal()
                if i == 0 and j == 0:
                    continue
                a2 = (
                    kolmogorov_psd(np.hypot(i * dfm, j * dfm), r0)
                    * dfm**2
                    * _subharmonic_weight(i, j)
                )
                screen = screen + np.real(
                    np.sqrt(a2) * g * np.exp(2j * np.pi * (i * dfm * X + j * dfm * Y))
                )
    return screen - screen.mean()


class TestSeparableSubharmonics:
    """generate_screen against the per-cell loop it replaced."""

    @pytest.mark.parametrize("n", [16, 128, 256])
    @pytest.mark.parametrize("levels", [0, 1, 5, 8])
    @pytest.mark.parametrize("r0", [4.0, np.inf])
    def test_matches_loop(self, n, levels, r0):
        for seed in (0, 1, 20260):
            spec = TurbulenceSpec(
                r0=r0, grid=Grid2D(n=n, dx=1.0), seed=seed, n_subharmonics=levels
            )
            got = generate_screen(spec).phase
            want = loop_screen(spec)
            if levels == 0:
                assert np.array_equal(got, want)
            else:
                scale = np.abs(want).max()
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


class TestStructureFunction:
    def test_inertial_range_agreement(self):
        # Ensemble estimate against 6.88 (r/r0)^(5/3) across lags 4..16 px.
        screens = [generate_screen(spec128(3000 + k)) for k in range(150)]
        seps = np.array([4.0, 8.0, 16.0])
        d = structure_function(screens, seps)
        ratio = d / phase_structure_theory(seps, 16.0)
        assert np.all(ratio > 0.90) and np.all(ratio < 1.10)

    def test_subharmonics_restore_large_scale_power(self):
        with_sub = [generate_screen(spec128(9000 + k, n_sub=5)) for k in range(120)]
        without = [generate_screen(spec128(9000 + k, n_sub=0)) for k in range(120)]
        sep = 32.0  # a quarter of the grid extent
        d_with = structure_function(with_sub, [sep])[0]
        d_without = structure_function(without, [sep])[0]
        d_th = phase_structure_theory(sep, 16.0)
        assert d_with > d_without
        assert abs(d_with / d_th - 1) < abs(d_without / d_th - 1)

    def test_needs_fifty_screens(self):
        screens = [generate_screen(spec128(k)) for k in range(3)]
        with pytest.raises(ValueError, match="50"):
            structure_function(screens, [4.0])

    def test_mixed_statistics_rejected(self):
        screens = [generate_screen(spec128(k)) for k in range(50)]
        screens[10] = generate_screen(spec128(10, r0_px=8.0))
        with pytest.raises(ValueError, match="mixed"):
            structure_function(screens, [4.0])

    def test_separation_bounds(self):
        screens = [generate_screen(spec128(k, n_sub=0)) for k in range(50)]
        with pytest.raises(ValueError):
            structure_function(screens, [0.2])
        with pytest.raises(ValueError):
            structure_function(screens, [100.0])


class TestScreenIO:
    def test_round_trip(self, tmp_path):
        s = generate_screen(spec128(123))
        path = tmp_path / "screen.skyp"
        write_screen(s, path)
        back = read_screen(path)
        assert back.spec == s.spec
        assert np.array_equal(back.phase, s.phase)

    def test_header_layout(self, tmp_path):
        s = generate_screen(spec128(1))
        path = tmp_path / "screen.skyp"
        write_screen(s, path)
        raw = path.read_bytes()
        assert raw[:4] == b"SKYP"
        assert len(raw) == 36 + 128 * 128 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.skyp"
        path.write_bytes(b"WHAT" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            read_screen(path)

    def test_truncated_rejected(self, tmp_path):
        s = generate_screen(spec128(1))
        path = tmp_path / "screen.skyp"
        write_screen(s, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="truncated"):
            read_screen(path)
