"""Tests for state construction, tomography, and reconstruction."""

import json
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
    TomographyRecord,
    catalog,
    density_from_json,
    density_to_json,
    ensemble_average,
    make_state,
    partial_trace,
    projective_probability,
    reconstruct_density,
    record_from_json,
    record_to_json,
    simulate_tomography,
)
from skysim.states import (
    _PAIR_INDEX,
    _PROJECTOR_KETS,
    _PROJECTOR_LABELS,
    _from_pauli_components,
)
from skysim.turbulence import TurbulenceSpec, generate_screen, omega_to_fried
from skysim.witnesses import purity

W0 = 0.9375e-3


def screen_for(omega, seed, n=128, ell=0):
    grid = make_grid(n, 16 * W0)
    r0 = omega_to_fried(omega, ell, W0)
    return generate_screen(TurbulenceSpec(r0=r0, grid=grid, seed=seed))


# The six local projector kets, spelled out independently of skysim.states.
KETS = {
    "0": np.array([1, 0]),
    "1": np.array([0, 1]),
    "s0": np.array([1, 1]) / np.sqrt(2),
    "s90": np.array([1, 1j]) / np.sqrt(2),
    "s180": np.array([1, -1]) / np.sqrt(2),
    "s270": np.array([1, -1j]) / np.sqrt(2),
}


def pair_probability(state, ket_a, ket_b, channel):
    """Per-pair forward model: |sum_k c_k <a|k> <b|T|k>|^2, T on photon B."""
    c = state.branch_amplitudes
    amp = np.sum(c * np.conj(ket_a) * (np.conj(ket_b) @ channel))
    return float(np.abs(amp) ** 2)


def lstsq_reference(record):
    """np.linalg.lstsq inversion of a counts record, then the squaring repair.

    The model is p_k = tr rho P_k with rho = sum r_mn sigma_m x sigma_n / 4
    and r_00 = 1, fitted over the 15 other components, with row k built
    from the labels of setting k in the canonical order. Returns the
    density matrix and whether it was repaired.
    """
    paulis = [
        np.eye(2),
        np.array([[0, 1], [1, 0]]),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]]),
    ]
    basis = [np.kron(sm, sn) for sm in paulis for sn in paulis]
    local = {label: np.outer(ket, ket.conj()) for label, ket in KETS.items()}
    projectors = [np.kron(local[la], local[lb]) for la, lb in _PAIR_INDEX]
    design = np.array(
        [[np.trace(op @ proj).real / 4 for op in basis[1:]] for proj in projectors]
    )
    cm = record.count_model
    probs = np.clip(record.values - cm.accidental_rate * cm.integration, 0, None)
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
        assert _PROJECTOR_LABELS == ("0", "1", "s0", "s90", "s180", "s270")
        expected = np.array([KETS[label] for label in _PROJECTOR_LABELS])
        assert np.abs(_PROJECTOR_KETS - expected).max() <= 1e-15

    def test_projectors_normalized(self):
        norms = np.linalg.norm(_PROJECTOR_KETS, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-12

    def test_pairs_a_major(self):
        pairs = [(a, b) for a in KETS for b in KETS]
        assert list(_PAIR_INDEX) == pairs
        assert list(_PAIR_INDEX.values()) == list(range(36))
        state = make_state(0, 2)
        rec = simulate_tomography(state, state_id="0_2")
        expected = [
            pair_probability(state, KETS[a], KETS[b], np.eye(2)) for a, b in pairs
        ]
        assert np.abs(rec.values - expected).max() <= 1e-15
        stored = record_to_json(rec)["entries"]
        assert [(la, lb) for la, lb, _ in stored] == pairs
        assert [v for _, _, v in stored] == rec.values.tolist()

    def test_local_set_spans_operator_space(self):
        vecs = [np.outer(k, k.conj()).ravel() for k in _PROJECTOR_KETS]
        assert np.linalg.matrix_rank(np.array(vecs), tol=1e-10) == 4

    def test_pair_set_spans_two_qubit_operators(self):
        vecs = [
            np.kron(np.outer(a, a.conj()), np.outer(b, b.conj())).ravel()
            for a in _PROJECTOR_KETS
            for b in _PROJECTOR_KETS
        ]
        assert np.linalg.matrix_rank(np.array(vecs), tol=1e-10) == 16

    def test_forward_model_matches_per_pair_reference(self):
        rng = np.random.default_rng(1301)
        channels = [np.eye(2)] + [
            (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))) / 2
            for _ in range(60)
        ]
        for name, state in catalog().items():
            for t in channels:
                expected = [
                    pair_probability(state, KETS[a], KETS[b], t)
                    for a in KETS
                    for b in KETS
                ]
                got = projective_probability(state, t)
                assert got.shape == (36,)
                assert np.abs(got - expected).max() <= 1e-13, name


class TestStates:
    def test_equal_branch_indices_rejected(self):
        with pytest.raises(ValueError, match="differ"):
            make_state(2, 2)

    @pytest.mark.parametrize("ells", [(0, 1.5), (0.5, 1.5), (0, True)])
    def test_non_integer_branch_index_rejected(self, ells):
        # each was accepted, and the closed-form wrapping number of (0, 1.5)
        # read 1.5
        with pytest.raises(ValueError, match="branch index ell_a"):
            make_state(*ells)

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
        swaps = [("0_1", "0_m1"), ("0_2", "0_m2"), ("0_3", "0_m3"),
                 ("0_1_phase", "0_m1_phase"), ("2_3", "m2_m3")]
        for base, swapped in swaps:
            b, s = cat[base], cat[swapped]
            assert s.ells_a == tuple(-ell for ell in b.ells_a), swapped
            assert s.ells_b == b.ells_a, swapped
            assert sum(s.ells_a) == -sum(b.ells_a) != 0, swapped
            assert s.relative_phase == b.relative_phase, swapped
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

    def test_rejects_non_finite_entry(self):
        # A NaN entry used to pass every check, then fail as a LinAlgError
        # in the first witness that took a decomposition.
        m = np.eye(4, dtype=complex) / 4
        m[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix4(m)

    def test_rejects_negative_eigenvalue(self):
        m = np.diag([0.6, 0.5, 0.0, -0.1]).astype(complex)
        with pytest.raises(ValueError, match="negative"):
            DensityMatrix4(m)

    def test_purity_of_pure_and_maximally_mixed(self):
        assert purity(DensityMatrix4.from_pure(make_state(0, 1))) == pytest.approx(1.0)
        mixed = DensityMatrix4(np.eye(4, dtype=complex) / 4)
        assert purity(mixed) == pytest.approx(0.25)

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
        assert purity(avg) == pytest.approx(0.5, abs=1e-12)

    def test_ensemble_average_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            ensemble_average([])


class TestSimulateTomography:
    def test_noiseless_record_sums_to_nine(self):
        rec = simulate_tomography(make_state(0, 1))
        assert rec.kind == "probability"
        assert rec.values.shape == (36,)
        assert rec.values.sum() == pytest.approx(9.0, abs=1e-9)

    def test_bell_state_signature_entries(self):
        rec = simulate_tomography(make_state(0, 1))
        vals = dict(zip(_PAIR_INDEX, rec.values))
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
        assert rec.values.sum() == pytest.approx(
            9.0 * np.vdot(psi_eff, psi_eff).real, rel=1e-9
        )

    def test_counts_record_deterministic(self):
        cm = CountModel()
        a = simulate_tomography(make_state(0, 1), count_model=cm, seed=42)
        b = simulate_tomography(make_state(0, 1), count_model=cm, seed=42)
        assert a.kind == "counts"
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.values, np.round(a.values))
        c = simulate_tomography(make_state(0, 1), count_model=cm, seed=43)
        assert not np.array_equal(a.values, c.values)

    def test_counts_scale_with_budget(self):
        cm = CountModel(pair_rate=4000, integration=2.5)
        rec = simulate_tomography(make_state(0, 1), count_model=cm, seed=1)
        total = rec.values.sum()
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
    def test_real_components_give_an_exactly_hermitian_matrix(self):
        # reconstruct_density relies on this and does not symmetrise
        rng = np.random.default_rng(2024)
        for _ in range(200):
            x = rng.uniform(-1.0, 1.0, 15)
            rho = _from_pauli_components(np.concatenate([[1.0], x]).reshape(4, 4))
            assert np.array_equal(rho, rho.conj().T)

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
        assert purity(rho) >= 0.999

    def test_renormalization_recorded(self):
        state = make_state(0, 1)
        screen = screen_for(2.0, seed=7104)
        rec = simulate_tomography(state, screen=screen, w0=W0, omega=2.0)
        rho, diag = reconstruct_density(rec, return_diagnostics=True)
        assert diag["renormalization"] == pytest.approx(
            9.0 / rec.values.sum(), rel=1e-12
        )

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
        dead = TomographyRecord(np.zeros(36), rec.provenance)
        with pytest.raises(ValueError, match="signal"):
            reconstruct_density(dead)


class TestSerialization:
    def test_record_round_trip(self):
        cm = CountModel()
        rec = simulate_tomography(
            make_state(0, 1), count_model=cm, seed=3, state_id="0_1"
        )
        doc = record_to_json(rec)
        back = record_from_json(json.loads(json.dumps(doc)))
        assert back.kind == rec.kind == "counts"
        assert np.array_equal(back.values, rec.values)
        assert back.provenance == rec.provenance
        assert back.count_model == cm

    def test_density_round_trip_preserves_complex_parts(self):
        rho = DensityMatrix4.from_pure(make_state(0, 1, -np.pi / 2))
        back = density_from_json(density_to_json(rho))
        assert np.allclose(back.matrix, rho.matrix, atol=1e-15)

    def test_missing_provenance_refused(self):
        rec = simulate_tomography(make_state(0, 1), state_id="0_1")
        provenance = dict(rec.provenance)
        del provenance["screen_hash"]
        with pytest.raises(ValueError, match="screen_hash"):
            TomographyRecord(rec.values, provenance)

    def test_record_without_provenance_refused_at_construction(self):
        with pytest.raises(
            ValueError, match="missing state_id, omega, seed, screen_hash"
        ):
            TomographyRecord(np.full(36, 0.25), {})

    def test_record_fixed_once_built(self):
        provenance = {"state_id": "0_1", "omega": 0.0, "seed": 0, "screen_hash": ""}
        values = np.full(36, 0.25)
        rec = TomographyRecord(values, provenance)
        # the record holds copies, so its inputs can change without it
        values[0] = -1.0
        del provenance["seed"]
        assert rec.values[0] == 0.25
        assert rec.provenance["seed"] == 0
        with pytest.raises(ValueError, match="read-only"):
            rec.values[0] = np.nan
        with pytest.raises(TypeError):
            del rec.provenance["seed"]
        with pytest.raises(AttributeError):
            rec.kind = "counts"
        with pytest.raises(AttributeError):
            rec.count_model = CountModel()

    @pytest.mark.parametrize(
        "values, match",
        [
            (np.full(35, 0.25), "36 values"),
            (np.full((6, 6), 0.25), "36 values"),
            (np.r_[np.full(35, 0.25), -0.25], "negative"),
            (np.r_[np.full(35, 0.25), np.nan], "non-finite"),
        ],
    )
    def test_record_with_bad_values_refused(self, values, match):
        provenance = {"state_id": "0_1", "omega": 0.0, "seed": 0, "screen_hash": ""}
        with pytest.raises(ValueError, match=match):
            TomographyRecord(values, provenance)

    def test_kind_follows_count_model(self):
        state = make_state(0, 1)
        assert simulate_tomography(state).kind == "probability"
        rec = simulate_tomography(state, count_model=CountModel(), seed=4)
        assert rec.kind == "counts"
        # the kind is whether a count model is carried, not a field of its own
        bare = TomographyRecord(rec.values, rec.provenance)
        assert bare.kind == "probability"

    @pytest.mark.parametrize("counts", [False, True])
    def test_stored_kind_disagreeing_with_count_model_refused(self, counts):
        cm = CountModel() if counts else None
        rec = simulate_tomography(make_state(0, 1), count_model=cm, seed=5)
        doc = record_to_json(rec)
        doc["kind"] = "probability" if counts else "counts"
        with pytest.raises(ValueError, match="does not match its count model"):
            record_from_json(doc)
        # a model dropped from a counts document is refused the same way
        if counts:
            doc = record_to_json(rec)
            del doc["count_model"]
            with pytest.raises(ValueError, match="does not match its count model"):
                record_from_json(doc)

    def test_stored_entries_in_any_order_read_back_canonical(self):
        rec = simulate_tomography(
            make_state(0, 1, -np.pi / 2), count_model=CountModel(), seed=6
        )
        doc = record_to_json(rec)
        order = np.random.default_rng(6).permutation(36)
        doc["entries"] = [doc["entries"][i] for i in order]
        assert [tuple(e[:2]) for e in doc["entries"]] != list(_PAIR_INDEX)
        back = record_from_json(doc)
        assert np.array_equal(back.values, rec.values)
        assert record_to_json(back) == record_to_json(rec)

    def test_stored_record_without_provenance_refused(self):
        rec = simulate_tomography(make_state(0, 1), state_id="0_1")
        doc = record_to_json(rec)
        del doc["provenance"]["seed"]
        with pytest.raises(ValueError, match="seed"):
            record_from_json(doc)

    def test_stored_record_with_unknown_pair_refused(self):
        doc = record_to_json(simulate_tomography(make_state(0, 1), state_id="0_1"))
        doc["entries"][5][1] = "s45"
        with pytest.raises(
            ValueError, match=r"unknown \[\('0', 's45'\)\], missing \[\('0', 's270'\)\]"
        ):
            record_from_json(doc)

    def test_stored_record_with_duplicate_pair_refused(self):
        doc = record_to_json(simulate_tomography(make_state(0, 1), state_id="0_1"))
        doc["entries"][5][:2] = doc["entries"][4][:2]
        with pytest.raises(
            ValueError, match=r"pairs once; unknown \[\], missing \[\('0', 's270'\)\]"
        ):
            record_from_json(doc)
        # an extra copy of a setting is refused even with all 36 present
        doc = record_to_json(simulate_tomography(make_state(0, 1), state_id="0_1"))
        doc["entries"].append(list(doc["entries"][4]))
        with pytest.raises(ValueError, match="each of the 36 projector pairs once"):
            record_from_json(doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_stored_record_with_non_finite_entry_refused(self, value):
        doc = record_to_json(simulate_tomography(make_state(0, 1), state_id="0_1"))
        doc["entries"][5][2] = value
        with pytest.raises(ValueError, match="non-finite value"):
            record_from_json(doc)

    def test_json_serializable(self):
        rec = simulate_tomography(make_state(0, 2), state_id="0_2")
        text = json.dumps(record_to_json(rec))
        assert "s270" in text
