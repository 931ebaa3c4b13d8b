"""Crosstalk amplitudes, survival probability, and counting arithmetic."""

from types import SimpleNamespace

import numpy as np
import pytest

import skysim.channel
from skysim.channel import (
    CountModel,
    apply_screen,
    crosstalk_amplitude,
    effective_channel,
    survival_probability_analytic,
)
from skysim.modes import LGMode, azimuthal_spectrum, lg_field, make_grid
from skysim.experiments import RunConfig, run_static
from skysim.states import catalog, projective_probability, simulate_tomography
from skysim.turbulence import TurbulenceSpec, generate_screen, omega_to_fried

W0 = 0.9375e-3


def screen_for(omega, seed, n=128, ell=0):
    grid = make_grid(n, 16 * W0)
    r0 = omega_to_fried(omega, ell, W0)
    return generate_screen(TurbulenceSpec(r0=r0, grid=grid, seed=seed))


def flat_screen(n=128):
    return screen_for(0.0, 0, n=n)


def einsum_channel(state, screen, w0):
    """Reference: the pixel sums conj(u_j) u_k exp(i phi) dx^2 on freshly
    built complex modes."""
    grid = screen.grid
    modes = np.stack(
        [lg_field(LGMode(ell=ell, w0=w0), grid).amplitude for ell in state.ells_b]
    )
    screened = modes * np.exp(1j * screen.phase)
    return np.einsum("jxy,kxy->jk", np.conj(modes), screened) * grid.dx**2


class TestApplyScreen:
    def test_power_preserved(self):
        grid = make_grid(128, 16 * W0)
        f = lg_field(LGMode(ell=1, w0=W0), grid)
        out = apply_screen(f, screen_for(1.5, 3))
        assert out.power == pytest.approx(f.power, rel=1e-12)

    def test_grid_mismatch_rejected(self):
        f = lg_field(LGMode(ell=0, w0=W0), make_grid(64, 8 * W0))
        with pytest.raises(ValueError, match="grid"):
            apply_screen(f, flat_screen(n=128))


class TestCrosstalk:
    def test_identity_without_turbulence(self):
        s = flat_screen()
        assert crosstalk_amplitude(0, 0, s, W0) == pytest.approx(1.0, abs=1e-6)
        assert abs(crosstalk_amplitude(0, 2, s, W0)) < 1e-3

    # (0, 1) is the mirror of (0, -1), read off the same weights
    @pytest.mark.parametrize(
        "ells_b", [(0, -1), (0, 1), (2, 3)], ids=["0_m1", "0_1", "2_3"]
    )
    def test_matrix_matches_single_amplitudes(self, ells_b):
        s = screen_for(1.0, 11)
        state = SimpleNamespace(ells_b=ells_b)
        t = effective_channel(state, s, W0)
        for k, ell_in in enumerate(state.ells_b):
            for j, ell_out in enumerate(state.ells_b):
                direct = crosstalk_amplitude(ell_in, ell_out, s, W0)
                assert t[j, k] == pytest.approx(direct, abs=1e-12)

    def test_turbulence_spreads_power(self):
        s = screen_for(2.0, 21)
        powers = {
            ell: abs(crosstalk_amplitude(0, ell, s, W0)) ** 2 for ell in range(-10, 11)
        }
        survived = powers[0]
        assert survived < 0.7
        assert sum(powers.values()) > survived

    @pytest.mark.parametrize("ell_in", [0, 1])
    def test_window_captures_most_power(self, ell_in):
        # Ten indices either side of the input hold >= 99% of the total
        # azimuthal-class power at moderate strength. The p=0-projected
        # column powers are much smaller (radial scattering is loss by
        # design); capture is a statement about azimuthal classes.
        grid = make_grid(128, 16 * W0)
        fracs = []
        for seed in range(10):
            s = screen_for(1.0, 7000 + seed)
            f = lg_field(LGMode(ell=ell_in, w0=W0), grid)
            out = apply_screen(f, s)
            spec = azimuthal_spectrum(out, (-30, 30))
            window = sum(spec.power(e) for e in range(ell_in - 10, ell_in + 11))
            fracs.append(window / spec.total)
        assert np.mean(fracs) >= 0.99

    def test_capture_converges_with_window(self):
        s = screen_for(2.0, 7003)
        grid = make_grid(128, 16 * W0)
        f = lg_field(LGMode(ell=0, w0=W0), grid)
        out = apply_screen(f, s)
        spec = azimuthal_spectrum(out, (-40, 40))
        captures = [
            sum(spec.power(e) for e in range(-L, L + 1)) for L in (5, 10, 20, 40)
        ]
        assert np.all(np.diff(captures) >= 0)
        assert captures[-1] == pytest.approx(1.0, abs=2e-2)

    def test_column_powers_bounded(self):
        # The power scattered out of one input, summed over a truncated
        # output window, can fall short of one but never exceed it.
        s = screen_for(2.0, 41)
        for ell_in in (0, 1):
            captured = sum(
                abs(crosstalk_amplitude(ell_in, ell_out, s, W0)) ** 2
                for ell_out in range(-10, 12)
            )
            assert captured <= 1.0 + 1e-9, ell_in


def own_pair_channel(state, screen, w0):
    """Reference: the channel read off weights built for the state's own
    pair, never shared with its mirror, by the same real product."""
    weights = skysim.channel._pair_weights.__wrapped__(
        tuple(state.ells_b), w0, screen.grid
    )
    phase = screen.phase.ravel()
    trig = np.empty((2, phase.size))
    np.cos(phase, out=trig[0])
    np.sin(phase, out=trig[1])
    m = (weights @ trig.T) * screen.grid.dx**2
    (c00, s00), (c11, s11), (cre, sre), (cim, sim) = m
    return np.array(
        [
            [complex(c00, s00), complex(cre - sim, sre + cim)],
            [complex(cre + sim, sre - cim), complex(c11, s11)],
        ]
    )


class TestEffectiveChannel:
    def bell_like(self, theta=0.0):
        return SimpleNamespace(
            ells_a=(0, 1),
            ells_b=(0, -1),
            branch_amplitudes=np.array([1.0, np.exp(1j * theta)]) / np.sqrt(2),
        )

    def test_no_screen_is_identity(self):
        t = effective_channel(self.bell_like(), None, W0)
        assert np.array_equal(t, np.eye(2))

    @pytest.mark.parametrize("n", [128, 256])
    def test_held_weights_match_einsum(self, n):
        # state A, then B, then A again: each key change rebuilds the weights
        a, b = SimpleNamespace(ells_b=(0, -1)), SimpleNamespace(ells_b=(2, 3))
        for i, state in enumerate((a, b, a)):
            s = screen_for(1.0, 60 + i, n=n)
            got = effective_channel(state, s, W0)
            np.testing.assert_allclose(
                got, einsum_channel(state, s, W0), rtol=0, atol=1e-13
            )

    def test_held_weights_read_only(self):
        skysim.channel._pair_weights.cache_clear()
        s = screen_for(0.5, 3)
        effective_channel(self.bell_like(), s, W0)
        weights = skysim.channel._pair_weights((0, -1), W0, s.grid)
        assert skysim.channel._pair_weights.cache_info().hits == 1
        assert weights.shape == (4, 128 * 128)
        assert not weights.flags.writeable
        with pytest.raises(ValueError):
            weights[0, 0] = 0.0

    def test_screen_without_waist_names_w0(self):
        s = screen_for(0.5, 3)
        with pytest.raises(ValueError, match="w0"):
            effective_channel(self.bell_like(), s, None)
        with pytest.raises(ValueError, match="w0"):
            simulate_tomography(catalog()["0_1"], screen=s)

    @staticmethod
    def count_modes(monkeypatch):
        calls = []

        def counting_lg_field(mode, grid):
            calls.append(mode.ell)
            return lg_field(mode, grid)

        skysim.channel._pair_weights.cache_clear()
        monkeypatch.setattr(skysim.channel, "lg_field", counting_lg_field)
        return calls

    def test_sweep_builds_modes_once_per_mirror_pair(self, monkeypatch, tmp_path):
        # 0_m1_phase (ells_b 0, 1) mirrors 0_1 (0, -1)
        calls = self.count_modes(monkeypatch)
        config = RunConfig(
            states=("0_1", "0_m1_phase"),
            omegas=(0.25, 0.5, 0.75),
            realisations=2,
            grid_n=128,
        )
        run_static(config, tmp_path)
        assert calls == [0, -1]

    def test_sweep_over_two_pairs_builds_each_once(self, monkeypatch, tmp_path):
        # the sweep alternates between the pairs at every screen
        calls = self.count_modes(monkeypatch)
        config = RunConfig(
            states=("0_1", "2_3", "0_m1"), omegas=(0.5, 1.0), realisations=2,
            grid_n=128,
        )
        run_static(config, tmp_path)
        assert calls == [0, -1, -2, -3]

    @pytest.mark.parametrize("n", [128, 256])
    def test_mirror_channel_equals_fresh_build(self, n):
        # Reversed, the sweep meets each mirror pair first under the key
        # that is not the cached one, so both signs of the shared last
        # row are checked against weights built for the state's own pair.
        screens = [screen_for(1.5, 80 + seed, n=n) for seed in range(3)]
        catalog_order = list(catalog().values())
        for states in (catalog_order, catalog_order[::-1]):
            skysim.channel._pair_weights.cache_clear()
            for state in states:
                for i, s in enumerate(screens):
                    shared = effective_channel(state, s, W0)
                    fresh = own_pair_channel(state, s, W0)
                    assert np.array_equal(shared, fresh), (state, i)
            # the ten catalog states fall into four mirror pairs
            assert skysim.channel._pair_weights.cache_info().misses == 4

    def test_held_pairs_bounded(self, monkeypatch):
        calls = self.count_modes(monkeypatch)
        s = screen_for(0.5, 3)
        pairs = [(0, 1), (0, 2), (0, 3), (2, 3), (1, 4), (0, -1)]
        for ells in pairs:
            effective_channel(SimpleNamespace(ells_b=ells), s, W0)
            assert skysim.channel._pair_weights.cache_info().currsize <= 4
        # (0, 1) was the least recently used of five pairs and was
        # dropped; its mirror (0, -1) rebuilds it, and the four since
        # are still held
        assert len(calls) == 2 * len(pairs)
        for ells in pairs[2:]:
            effective_channel(SimpleNamespace(ells_b=ells), s, W0)
        assert len(calls) == 2 * len(pairs)

    def test_second_grid_builds_its_own_weights(self, monkeypatch):
        calls = self.count_modes(monkeypatch)
        state = SimpleNamespace(ells_b=(0, 1))
        screens = {n: screen_for(0.5, 3, n=n) for n in (128, 256)}
        for n in (128, 256, 128):
            np.testing.assert_allclose(
                effective_channel(state, screens[n], W0),
                einsum_channel(state, screens[n], W0),
                rtol=0, atol=1e-13,
            )
        # the 128 array is still held when the sweep comes back to it
        assert calls == [0, -1, 0, -1]
        assert skysim.channel._pair_weights.cache_info().currsize == 2

    def test_projective_probabilities_ideal(self):
        # rows and columns: projectors 0, 1, s0 (plus), s90, s180 (minus), s270
        p = projective_probability(self.bell_like(), np.eye(2)).reshape(6, 6)
        assert p[0, 0] == pytest.approx(0.5)
        assert p[0, 1] == pytest.approx(0.0, abs=1e-15)
        assert p[2, 2] == pytest.approx(0.5)
        assert p[2, 4] == pytest.approx(0.0, abs=1e-15)


class TestSurvival:
    # Frozen reference values for (I0 + I1) * exp(-beta) at
    # beta = 1.8025 * omega^(5/3), cross-checked against an independent
    # series expansion of the modified Bessel functions.
    TABLE = {
        0.0: 1.0,
        0.25: 0.918019,
        0.5: 0.780874,
        1.0: 0.546296,
        1.5: 0.407923,
        2.0: 0.325979,
    }

    @pytest.mark.parametrize("omega,expected", sorted(TABLE.items()))
    def test_reference_values(self, omega, expected):
        assert survival_probability_analytic(omega) == pytest.approx(expected, abs=1e-5)

    def test_monotone_decreasing(self):
        omegas = np.linspace(0, 3, 25)
        vals = [survival_probability_analytic(o) for o in omegas]
        assert np.all(np.diff(vals) < 0)

    def test_simulated_survival_tracks_curve(self):
        # Quick ensemble check at omega = 1; the full-ladder comparison
        # lives with the acceptance suite.
        vals = []
        for k in range(30):
            s = screen_for(1.0, 5000 + k)
            vals.append(abs(crosstalk_amplitude(0, 0, s, W0)) ** 2)
        assert np.mean(vals) == pytest.approx(
            survival_probability_analytic(1.0), abs=0.15
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            survival_probability_analytic(-0.1)


class TestCounting:
    def test_accidental_rate(self):
        m = CountModel(singles_rate_a=1e5, singles_rate_b=1e5, gate=2e-9)
        assert m.accidental_rate == pytest.approx(20.0)

    def test_pair_budget(self):
        m = CountModel(pair_rate=2500.0, integration=4.0)
        assert m.pair_budget == pytest.approx(1e4)

    def test_validation(self):
        with pytest.raises(ValueError):
            CountModel(pair_rate=-1.0)
        with pytest.raises(ValueError):
            CountModel(gate=0.0)
        with pytest.raises(ValueError):
            CountModel(integration=0.0)
        for name in ("pair_rate", "singles_rate_a", "singles_rate_b", "integration"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    CountModel(**{name: value})
