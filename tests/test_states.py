"""Tests for state construction, tomography, and reconstruction."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import skysim
from skysim.channel import CountModel, effective_channel
from skysim.modes import make_grid
from skysim.states import (
    BipartitePureState,
    DensityMatrix4,
    catalog,
    density_from_json,
    density_to_json,
    ensemble_average,
    make_state,
    partial_trace,
    projector_pairs,
    reconstruct_density,
    record_from_json,
    record_to_json,
    simulate_tomography,
    tomography_set,
)
from skysim.turbulence import TurbulenceSpec, generate_screen, omega_to_fried

W0 = 0.9375e-3


def screen_for(omega, seed, n=128, ell=0):
    grid = make_grid(n, 16 * W0)
    r0 = omega_to_fried(omega, ell, W0)
    return generate_screen(TurbulenceSpec(r0=r0, grid=grid, seed=seed))


def lstsq_reference(record):
    """np.linalg.lstsq inversion of a counts record, then the squaring repair.

    The model is p_k = tr rho P_k with rho = sum r_mn sigma_m x sigma_n / 4
    and r_00 = 1, fitted over the 15 other components. Returns the
    density matrix and whether it was repaired.
    """
    paulis = [
        np.eye(2),
        np.array([[0, 1], [1, 0]]),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]]),
    ]
    basis = [np.kron(sm, sn) for sm in paulis for sn in paulis]
    projectors = [
        np.kron(np.outer(a.ket, a.ket.conj()), np.outer(b.ket, b.ket.conj()))
        for a, b in projector_pairs()
    ]
    design = np.array(
        [[np.trace(op @ proj).real / 4 for op in basis[1:]] for proj in projectors]
    )
    cm = record.count_model
    probs = np.clip(record.values() - cm.accidental_rate * cm.integration, 0, None)
    probs = 9 * probs / probs.sum()
    r, *_ = np.linalg.lstsq(design, probs - 0.25, rcond=None)
    rho = (basis[0] + sum(c * op for c, op in zip(r, basis[1:]))) / 4
    rho = (rho + rho.conj().T) / 2
    repaired = np.linalg.eigvalsh(rho).min() < -1e-10
    if repaired:
        rho = rho @ rho
    return rho / np.trace(rho).real, repaired


def fidelity_to_pure(state, rho):
    psi = state.ket4()
    return float(np.real(np.conj(psi) @ (rho.matrix @ psi)))


class TestProjectors:
    def test_six_projectors_canonical_order(self):
        labels = [p.label for p in tomography_set()]
        assert labels == ["0", "1", "s0", "s90", "s180", "s270"]

    def test_projectors_normalized(self):
        for p in tomography_set():
            assert np.linalg.norm(p.ket) == pytest.approx(1.0, abs=1e-12)

    def test_pairs_a_major(self):
        pairs = projector_pairs()
        assert len(pairs) == 36
        assert [p[0].label for p in pairs[:6]] == ["0"] * 6
        assert [p[1].label for p in pairs[:6]] == [
            "0",
            "1",
            "s0",
            "s90",
            "s180",
            "s270",
        ]

    def test_local_set_spans_operator_space(self):
        vecs = [np.outer(p.ket, p.ket.conj()).ravel() for p in tomography_set()]
        assert np.linalg.matrix_rank(np.array(vecs), tol=1e-10) == 4

    def test_pair_set_spans_two_qubit_operators(self):
        vecs = [
            np.kron(np.outer(a.ket, a.ket.conj()), np.outer(b.ket, b.ket.conj())).ravel()
            for a, b in projector_pairs()
        ]
        assert np.linalg.matrix_rank(np.array(vecs), tol=1e-10) == 16

    def test_unnormalized_ket_rejected(self):
        from skysim.states import Projector

        with pytest.raises(ValueError, match="normalized"):
            Projector("bad", np.array([1.0, 1.0]))


class TestStates:
    def test_equal_branch_indices_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            make_state(2, 2)

    def test_arm_b_anticorrelated(self):
        s = make_state(0, 3)
        assert s.ells_a == (0, 3)
        assert s.ells_b == (0, -3)

    def test_branch_amplitudes_carry_phase(self):
        s = make_state(0, 1, -np.pi / 2)
        amps = s.branch_amplitudes
        assert amps[0] == pytest.approx(1 / np.sqrt(2))
        assert amps[1] == pytest.approx(-1j / np.sqrt(2))

    def test_catalog_has_ten_distinct_states(self):
        cat = catalog()
        assert len(cat) == 10
        seen = {(s.ell_a1, s.ell_a2, round(s.relative_phase, 9)) for s in cat.values()}
        assert len(seen) == 10

    def test_catalog_ids_stable(self):
        assert list(catalog()) == [
            "0_1",
            "0_2",
            "0_3",
            "0_1_phase",
            "2_3",
            "0_m1",
            "0_m2",
            "0_m3",
            "0_m1_phase",
            "2_3".replace("2", "m2").replace("3", "m3"),
        ]

    def test_catalog_targets_cover_expected_values(self):
        targets = sorted(sum(s.ells_a) for s in catalog().values())
        assert targets == [-5, -3, -2, -1, -1, 1, 1, 2, 3, 5]

    def test_swap_negates_target_and_keeps_phase(self):
        cat = catalog()
        assert sum(cat["0_m1"].ells_a) == -1
        assert cat["0_m1_phase"].relative_phase == pytest.approx(-np.pi / 2)


class TestDensityMatrix:
    def test_from_pure_equal_superposition_corners(self):
        rho = DensityMatrix4.from_pure(make_state(0, 1))
        m = rho.matrix
        for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            assert m[i, j] == pytest.approx(0.5, abs=1e-12)
        assert np.abs(m[1:3, :]).max() == 0.0

    def test_relative_phase_in_coherence(self):
        rho = DensityMatrix4.from_pure(make_state(0, 1, -np.pi / 2))
        assert rho.matrix[0, 3] == pytest.approx(0.5j, abs=1e-12)

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix4(m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix4(np.eye(4, dtype=complex) / 2)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
        with pytest.raises(ValueError, match="negative"):
            DensityMatrix4(m)

    def test_purity_of_pure_and_maximally_mixed(self):
        assert DensityMatrix4.from_pure(make_state(0, 1)).purity == pytest.approx(1.0)
        mixed = DensityMatrix4(np.eye(4, dtype=complex) / 4)
        assert mixed.purity == pytest.approx(0.25)

    def test_partial_trace_of_bell_is_maximally_mixed(self):
        rho = DensityMatrix4.from_pure(make_state(0, 1))
        for arm in ("A", "B"):
            assert np.allclose(partial_trace(rho, arm), np.eye(2) / 2, atol=1e-12)

    def test_partial_trace_of_product_state(self):
        psi = np.kron([1.0, 0.0], [1 / np.sqrt(2), 1j / np.sqrt(2)])
        rho = DensityMatrix4(np.outer(psi, psi.conj()))
        assert np.allclose(partial_trace(rho, "A"), [[1, 0], [0, 0]], atol=1e-12)
        assert np.allclose(
            partial_trace(rho, "B"), [[0.5, -0.5j], [0.5j, 0.5]], atol=1e-12
        )

    def test_partial_trace_rejects_unknown_arm(self):
        rho = DensityMatrix4(np.eye(4, dtype=complex) / 4)
        with pytest.raises(ValueError, match="keep"):
            partial_trace(rho, "C")

    def test_ensemble_average_mixes(self):
        a = DensityMatrix4.from_pure(make_state(0, 1))
        b = DensityMatrix4.from_pure(make_state(0, 1, np.pi))
        avg = ensemble_average([a, b])
        assert avg.purity == pytest.approx(0.5, abs=1e-12)

    def test_ensemble_average_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            ensemble_average([])


class TestSimulateTomography:
    def test_noiseless_record_sums_to_nine(self):
        rec = simulate_tomography(make_state(0, 1))
        assert rec.kind == "probability"
        assert rec.values().sum() == pytest.approx(9.0, abs=1e-9)

    def test_bell_state_signature_entries(self):
        rec = simulate_tomography(make_state(0, 1))
        vals = {(la, lb): v for la, lb, v in rec.entries}
        assert vals[("0", "0")] == pytest.approx(0.5, abs=1e-12)
        assert vals[("0", "1")] == pytest.approx(0.0, abs=1e-12)
        assert vals[("s0", "s0")] == pytest.approx(0.5, abs=1e-12)
        assert vals[("s90", "s90")] == pytest.approx(0.0, abs=1e-12)
        assert vals[("s90", "s270")] == pytest.approx(0.5, abs=1e-12)

    def test_screened_record_sum_tracks_effective_trace(self):
        state = make_state(0, 1)
        screen = screen_for(1.0, seed=7101)
        t = effective_channel(state, screen, W0)
        amps = state.branch_amplitudes
        psi_eff = np.kron(np.eye(2), t) @ np.array([amps[0], 0, 0, amps[1]])
        rec = simulate_tomography(state, screen=screen, w0=W0, omega=1.0)
        assert rec.values().sum() == pytest.approx(
            9.0 * np.vdot(psi_eff, psi_eff).real, rel=1e-9
        )

    def test_counts_record_deterministic(self):
        cm = CountModel()
        a = simulate_tomography(make_state(0, 1), count_model=cm, seed=42)
        b = simulate_tomography(make_state(0, 1), count_model=cm, seed=42)
        assert a.entries == b.entries
        c = simulate_tomography(make_state(0, 1), count_model=cm, seed=43)
        assert a.entries != c.entries

    def test_counts_scale_with_budget(self):
        cm = CountModel(pair_rate=4000, integration=2.5)
        rec = simulate_tomography(make_state(0, 1), count_model=cm, seed=1)
        total = rec.values().sum()
        assert total == pytest.approx(9.0 * cm.pair_budget, rel=0.05)

    def test_provenance_recorded(self):
        screen = screen_for(0.5, seed=7102)
        rec = simulate_tomography(
            make_state(0, 2), screen=screen, w0=W0, state_id="0_2", omega=0.5
        )
        assert rec.provenance["state_id"] == "0_2"
        assert rec.provenance["omega"] == 0.5
        assert rec.provenance["seed"] == 7102
        assert len(rec.provenance["screen_hash"]) == 64


class TestReconstruction:
    def test_noiseless_round_trip_all_catalog_states(self):
        for name, state in catalog().items():
            rec = simulate_tomography(state, state_id=name)
            rho = reconstruct_density(rec)
            assert fidelity_to_pure(state, rho) >= 0.999, name

    def test_screened_reconstruction_matches_effective_state(self):
        state = make_state(0, 1)
        screen = screen_for(1.5, seed=7103)
        rec = simulate_tomography(state, screen=screen, w0=W0, omega=1.5)
        rho = reconstruct_density(rec)
        t = effective_channel(state, screen, W0)
        amps = state.branch_amplitudes
        psi = np.kron(np.eye(2), t) @ np.array([amps[0], 0, 0, amps[1]])
        psi = psi / np.linalg.norm(psi)
        overlap = float(np.real(np.conj(psi) @ (rho.matrix @ psi)))
        assert overlap >= 0.9999
        assert rho.purity >= 0.999

    def test_renormalization_recorded(self):
        state = make_state(0, 1)
        screen = screen_for(2.0, seed=7104)
        rec = simulate_tomography(state, screen=screen, w0=W0, omega=2.0)
        rho, diag = reconstruct_density(rec, return_diagnostics=True)
        assert diag["renormalization"] == pytest.approx(
            9.0 / rec.values().sum(), rel=1e-12
        )
        assert diag["method"] == "linear"

    def test_poisson_counts_reconstruction(self):
        state = make_state(0, 1, -np.pi / 2)
        cm = CountModel(pair_rate=10000, integration=1.0)
        fids = []
        for seed in range(5):
            rec = simulate_tomography(state, count_model=cm, seed=900 + seed)
            rho = reconstruct_density(rec)
            fids.append(fidelity_to_pure(state, rho))
        assert min(fids) >= 0.97
        assert np.mean(fids) >= 0.98

    @pytest.mark.parametrize("state_id", ["0_1", "0_m2", "2_3", "0_1_phase", "0_m3"])
    def test_matches_least_squares_reference(self, state_id):
        state = catalog()[state_id]
        for omega in (0.5, 1.0, 2.0):
            for seed in (7201, 7202):
                screen = screen_for(omega, seed=seed)
                rec = simulate_tomography(
                    state, screen=screen, w0=W0, count_model=CountModel(),
                    seed=seed + 50, omega=omega,
                )
                rho, diag = reconstruct_density(rec, return_diagnostics=True)
                expected, repaired = lstsq_reference(rec)
                assert diag["repaired"] == repaired
                assert np.abs(rho.matrix - expected).max() <= 1e-12, (omega, seed)

    def test_reconstruction_does_not_import_scipy_optimize(self):
        code = (
            "import sys\n"
            "from skysim.channel import CountModel\n"
            "from skysim.states import make_state, reconstruct_density, "
            "simulate_tomography\n"
            "rec = simulate_tomography(make_state(0, 2), count_model=CountModel(), "
            "seed=77)\n"
            "reconstruct_density(rec)\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        src = str(Path(skysim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_reconstruction_repairs_to_valid_state(self):
        cm = CountModel(pair_rate=500)
        rec = simulate_tomography(make_state(0, 3), count_model=cm, seed=5)
        rho = reconstruct_density(rec)
        assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-10
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-10)

    def test_all_zero_record_rejected(self):
        rec = simulate_tomography(make_state(0, 1))
        dead = [(la, lb, 0.0) for la, lb, _ in rec.entries]
        rec.entries = dead
        with pytest.raises(ValueError, match="signal"):
            reconstruct_density(rec)


class TestSerialization:
    def test_record_round_trip(self):
        cm = CountModel()
        rec = simulate_tomography(
            make_state(0, 1), count_model=cm, seed=3, state_id="0_1"
        )
        doc = record_to_json(rec)
        back = record_from_json(doc)
        assert back.kind == rec.kind
        assert back.entries == rec.entries
        assert back.provenance == rec.provenance
        assert back.count_model == cm

    def test_density_round_trip_preserves_complex_parts(self):
        rho = DensityMatrix4.from_pure(make_state(0, 1, -np.pi / 2))
        back = density_from_json(density_to_json(rho))
        assert np.allclose(back.matrix, rho.matrix, atol=1e-15)

    def test_missing_provenance_refused(self):
        rec = simulate_tomography(make_state(0, 1), state_id="0_1")
        del rec.provenance["screen_hash"]
        with pytest.raises(ValueError, match="screen_hash"):
            record_to_json(rec)

    def test_stored_record_without_provenance_refused(self):
        rec = simulate_tomography(make_state(0, 1), state_id="0_1")
        doc = record_to_json(rec)
        del doc["provenance"]["seed"]
        with pytest.raises(ValueError, match="seed"):
            record_from_json(doc)

    def test_json_serializable(self):
        import json

        rec = simulate_tomography(make_state(0, 2), state_id="0_2")
        text = json.dumps(record_to_json(rec))
        assert "s270" in text
