"""Tests for entanglement witnesses and discord optimization."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import skysim.witnesses
from skysim.states import (
    DensityMatrix4,
    catalog,
    make_state,
    partial_trace,
    pauli_components,
)
from skysim.witnesses import (
    WitnessReport,
    _objective_batch,
    _qubit_entropy,
    classical_correlation,
    concurrence,
    discord,
    evaluate_witnesses,
    fidelity,
    mutual_information,
    purity,
    von_neumann_entropy,
)

BELL = DensityMatrix4.from_pure(make_state(0, 1))
MIXED = DensityMatrix4(np.eye(4, dtype=complex) / 4)


def werner(p):
    return DensityMatrix4(p * BELL.matrix + (1 - p) * np.eye(4) / 4)


def classical_mixture():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = 0.5
    return DensityMatrix4(m)


def product_state():
    psi = np.kron([1.0, 0.0], [1 / np.sqrt(2), 1 / np.sqrt(2)])
    return DensityMatrix4(np.outer(psi, psi.conj()))


def random_density(seed, rank=4):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
    m = g @ g.conj().T
    return DensityMatrix4(m / np.trace(m).real)


def random_local_unitary(rng):
    def haar2():
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(g)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    return np.kron(haar2(), haar2())


def ket_objective(rho4, theta, phi, entropy_a):
    """Reference objective: the conditional states of A as complex 2x2
    matrices, one einsum per outcome, and their eigenvalues."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    ct, st = np.cos(theta / 2), np.sin(theta / 2)
    e = np.exp(1j * phi)
    m0 = np.stack([ct * np.ones_like(e), e * st], axis=-1)
    m1 = np.stack([st * np.ones_like(e), -e * ct], axis=-1)
    reshaped = rho4.reshape(2, 2, 2, 2)
    cond = 0.0
    for kets in (m0, m1):
        sub = np.einsum("gb,abcd,gd->gac", kets.conj(), reshaped, kets)
        p = np.real(sub[:, 0, 0] + sub[:, 1, 1])
        half = 0.5 * np.real(sub[:, 0, 0] - sub[:, 1, 1])
        gap = np.sqrt(half**2 + np.abs(sub[:, 0, 1]) ** 2)
        lam = np.clip(np.stack([p / 2 + gap, p / 2 - gap], axis=-1), 0.0, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            scaled = np.where(p[:, None] > 1e-15, lam / p[:, None], 0.0)
            terms = np.where(scaled > 1e-15, scaled * np.log2(scaled), 0.0)
        cond = cond - np.where(p > 1e-15, p, 0.0) * terms.sum(axis=-1)
    return entropy_a - cond


def dense_grid_correlation(rho, n_theta, n_phi):
    """Independent brute-force floor for the classical correlation."""
    entropy_a = von_neumann_entropy(partial_trace(rho, "A"))
    theta = (np.arange(n_theta) + 0.5) * np.pi / n_theta
    phi = (np.arange(n_phi) + 0.5) * 2 * np.pi / n_phi
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    return float(
        np.max(_objective_batch(rho.matrix, tt.ravel(), pp.ravel(), entropy_a))
    )


def slsqp_correlation(rho):
    """Reference maximiser: the floor of a 32x64 full-sphere grid, refined
    by SLSQP from eight fixed starts and from the grid argmax."""
    from scipy.optimize import minimize

    entropy_a = von_neumann_entropy(partial_trace(rho, "A"))
    theta = (np.arange(32) + 0.5) * np.pi / 32
    phi = (np.arange(64) + 0.5) * 2 * np.pi / 64
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    vals = _objective_batch(rho.matrix, tt.ravel(), pp.ravel(), entropy_a)
    grid_best = int(np.argmax(vals))
    starts = [
        (t, p)
        for t in (np.pi / 4, 3 * np.pi / 4)
        for p in (np.pi / 4, 3 * np.pi / 4, 5 * np.pi / 4, 7 * np.pi / 4)
    ] + [(tt.ravel()[grid_best], pp.ravel()[grid_best])]

    def neg(x):
        return -float(_objective_batch(rho.matrix, x[:1], x[1:], entropy_a)[0])

    best = float(vals[grid_best])
    for start in starts:
        res = minimize(
            neg,
            np.array(start),
            method="SLSQP",
            bounds=[(0.0, np.pi), (0.0, 2 * np.pi)],
            options={"maxiter": 200, "ftol": 1e-12},
        )
        best = max(best, -float(res.fun))
    return best


class TestConcurrence:
    def test_bell_state(self):
        assert concurrence(BELL) == pytest.approx(1.0, abs=1e-12)

    def test_product_state(self):
        assert concurrence(product_state()) == pytest.approx(0.0, abs=1e-8)

    def test_maximally_mixed(self):
        assert concurrence(MIXED) == pytest.approx(0.0, abs=1e-12)

    def test_werner_half(self):
        assert concurrence(werner(0.5)) == pytest.approx(0.25, abs=1e-10)

    def test_werner_family_matches_closed_form(self):
        for p in (0.0, 0.2, 1 / 3, 0.6, 0.85, 1.0):
            expected = max(0.0, (3 * p - 1) / 2)
            assert concurrence(werner(p)) == pytest.approx(expected, abs=1e-10), p

    def test_never_negative(self):
        for seed in range(5):
            assert concurrence(random_density(seed)) >= 0.0

    def test_pure_states_match_closed_form(self):
        rng = np.random.default_rng(808)
        for _ in range(200):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            expected = 2 * abs(psi[0] * psi[3] - psi[1] * psi[2])
            assert concurrence(np.outer(psi, psi.conj())) == pytest.approx(
                expected, abs=1e-12
            )


class TestPurityFidelity:
    def test_purity_values(self):
        assert purity(BELL) == pytest.approx(1.0)
        assert purity(MIXED) == pytest.approx(0.25)
        assert purity(werner(0.5)) == pytest.approx(0.4375, abs=1e-12)

    def test_fidelity_identical(self):
        assert fidelity(BELL, BELL) == pytest.approx(1.0, abs=1e-10)

    def test_fidelity_bell_vs_mixed(self):
        assert fidelity(BELL, MIXED) == pytest.approx(0.25, abs=1e-10)

    def test_fidelity_pure_pure_is_squared_overlap(self):
        a = make_state(0, 1)
        b = make_state(0, 1, np.pi / 3)
        ra, rb = DensityMatrix4.from_pure(a), DensityMatrix4.from_pure(b)
        expected = abs(np.vdot(a.ket4(), b.ket4())) ** 2
        assert fidelity(ra, rb) == pytest.approx(expected, abs=1e-10)

    def test_fidelity_symmetric(self):
        a, b = random_density(10), random_density(11, rank=2)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-9)

    def test_fidelity_bounds(self):
        for seed in range(4):
            f = fidelity(random_density(seed), random_density(seed + 50))
            assert 0.0 <= f <= 1.0


class TestEntropies:
    def test_pure_state_entropy_zero(self):
        assert von_neumann_entropy(BELL.matrix) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_mixed_entropies(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)
        assert von_neumann_entropy(MIXED.matrix) == pytest.approx(2.0)

    def test_mutual_information_bell(self):
        assert mutual_information(BELL) == pytest.approx(2.0, abs=1e-10)

    def test_mutual_information_product_zero(self):
        assert mutual_information(product_state()) == pytest.approx(0.0, abs=1e-10)

    def test_mutual_information_classical_mixture(self):
        assert mutual_information(classical_mixture()) == pytest.approx(1.0, abs=1e-10)


class TestClassicalCorrelationAndDiscord:
    def test_bell_correlation_and_discord(self):
        assert classical_correlation(BELL) == pytest.approx(1.0, abs=1e-9)
        assert discord(BELL) == pytest.approx(1.0, abs=1e-6)

    def test_classical_mixture_has_zero_discord(self):
        rho = classical_mixture()
        assert classical_correlation(rho) == pytest.approx(1.0, abs=1e-9)
        assert discord(rho) == pytest.approx(0.0, abs=1e-9)

    def test_product_state_all_zero(self):
        rho = product_state()
        assert classical_correlation(rho) == pytest.approx(0.0, abs=1e-9)
        assert discord(rho) == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed_zero(self):
        assert discord(MIXED) == pytest.approx(0.0, abs=1e-9)

    def test_catalog_targets_carry_one_bit(self):
        # A pure state's discord is its entanglement entropy (Ollivier &
        # Zurek, PRL 88, 017901 (2001)), and every catalog state is
        # maximally entangled, so no target's discord needs a normaliser.
        for state_id, state in catalog().items():
            target = DensityMatrix4.from_pure(state)
            entropy = von_neumann_entropy(partial_trace(target, "A"))
            assert discord(target) == pytest.approx(entropy, abs=1e-12), state_id
            assert entropy == pytest.approx(1.0, abs=1e-12), state_id

    def test_optimizer_at_least_grid_floor(self):
        for seed in (0, 1, 2):
            rho = random_density(seed)
            val, diag = classical_correlation(rho, return_diagnostics=True)
            assert val >= diag["grid_max"] - 1e-15

    def test_optimizer_matches_dense_grid(self):
        for seed in range(5):
            rho = random_density(seed + 100)
            val = classical_correlation(rho)
            dense = dense_grid_correlation(rho, 128, 256)
            assert val >= dense - 1e-3, seed

    def test_discord_nonnegative_on_random_states(self):
        for seed in range(6):
            assert discord(random_density(seed + 200)) >= 0.0

    def test_local_unitary_invariance(self):
        rho = random_density(321, rank=2)
        base = discord(rho)
        rng = np.random.default_rng(99)
        for _ in range(25):
            u = random_local_unitary(rng)
            rotated = DensityMatrix4(u @ rho.matrix @ u.conj().T)
            assert discord(rotated) == pytest.approx(base, abs=1e-6)

    def test_diagnostics_deterministic(self):
        rho = random_density(7)
        _, d1 = classical_correlation(rho, return_diagnostics=True)
        _, d2 = classical_correlation(rho, return_diagnostics=True)
        assert d1 == d2


class TestObjectiveAgainstKets:
    def check(self, rho, theta, phi):
        entropy_a = von_neumann_entropy(partial_trace(rho, "A"))
        got = _objective_batch(rho.matrix, theta, phi, entropy_a)
        want = ket_objective(rho.matrix, theta, phi, entropy_a)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)

    def angles(self, seed, size=4096):
        rng = np.random.default_rng(seed)
        theta = np.concatenate([[0.0, np.pi, np.pi / 2], rng.uniform(0, np.pi, size)])
        phi = np.concatenate([[0.0, 0.0, 0.0], rng.uniform(0, 2 * np.pi, size)])
        return theta, phi

    def test_random_states(self):
        for seed in range(30):
            rho = random_density(seed, rank=(1, 2, 4)[seed % 3])
            self.check(rho, *self.angles(seed))

    def test_edge_states(self):
        zero_zero = np.zeros((4, 4), dtype=complex)
        zero_zero[0, 0] = 1.0
        # |00> measured along +z and -z: one outcome has probability zero
        self.check(DensityMatrix4(zero_zero), np.array([0.0, np.pi]), np.zeros(2))
        for rho in (DensityMatrix4(zero_zero), MIXED, werner(0.6)):
            self.check(rho, *self.angles(7))


def unstacked_objective(rho4, theta, phi, entropy_a):
    """Reference: _objective_batch as it was, one pass per outcome +-n
    and the Pauli components taken on every call."""
    r = pauli_components(rho4)
    a, b, corr = r[1:, 0], r[0, 1:], r[1:, 1:]
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st = np.sin(theta)
    n = np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)
    bn, tn = n @ b, n @ corr.T
    cond = 0.0
    for sign in (1.0, -1.0):
        p = (r[0, 0] + sign * bn) / 2
        length = np.linalg.norm(a + sign * tn, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = np.where(p > 1e-15, length / (2 * p), 0.0)
        cond = cond + p * _qubit_entropy(x)
    return entropy_a - cond


class TestStackedObjective:
    def test_bit_identical_to_unstacked(self):
        for seed in range(40):
            rho = random_density(seed + 500, rank=(1, 2, 3, 4)[seed % 4])
            theta, phi = TestObjectiveAgainstKets().angles(seed, size=1024)
            entropy_a = von_neumann_entropy(partial_trace(rho, "A"))
            got = _objective_batch(rho.matrix, theta, phi, entropy_a)
            want = unstacked_objective(rho.matrix, theta, phi, entropy_a)
            assert got.tobytes() == want.tobytes(), seed

    def test_pauli_components_once_per_search(self, monkeypatch):
        calls = []
        original = skysim.witnesses.pauli_components

        def counted(matrix):
            calls.append(matrix)
            return original(matrix)

        monkeypatch.setattr(skysim.witnesses, "pauli_components", counted)
        classical_correlation(random_density(3))
        assert len(calls) == 1


class TestSearchAgainstSlsqp:
    def test_never_below_reference(self):
        for seed in range(1000, 1150):
            rank = (1, 2, 4)[seed % 3]
            rho = random_density(seed, rank=rank)
            gap = slsqp_correlation(rho) - classical_correlation(rho)
            assert gap <= 1e-10, (seed, rank, gap)

    def test_optimum_near_pole(self):
        # The optimum sits at theta ~ 0.15, where the (theta, phi) grid is
        # strongly anisotropic; zooming on only 4 points trailed by 8.7e-7.
        rho = random_density(43, rank=2)
        assert classical_correlation(rho) >= slsqp_correlation(rho) - 1e-10

    def test_diagnostics_stable_under_rounding(self):
        # A 1e-16 change of rho moves the witness values at rounding level;
        # the diagnostics may move no more than that.
        rng = np.random.default_rng(5)
        for seed in range(30):
            rho = random_density(seed, rank=(1, 2, 4)[seed % 3])
            h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            h = h + h.conj().T
            nudged = DensityMatrix4(rho.matrix + 1e-16 * h / np.abs(h).max())
            d1 = evaluate_witnesses(rho, BELL).diagnostics
            d2 = evaluate_witnesses(nudged, BELL).diagnostics
            assert d1.keys() == d2.keys(), seed
            for key in d1:
                assert np.allclose(d1[key], d2[key], rtol=0, atol=1e-12), (seed, key)

    def test_does_not_import_scipy_optimize(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from skysim.states import DensityMatrix4, make_state\n"
            "from skysim.witnesses import evaluate_witnesses\n"
            "bell = DensityMatrix4.from_pure(make_state(0, 1))\n"
            "mixed = DensityMatrix4(0.7 * bell.matrix + 0.3 * np.eye(4) / 4)\n"
            "evaluate_witnesses(mixed, bell)\n"
            "print('scipy.optimize' in sys.modules)\n"
        )
        src = str(Path(skysim.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestReport:
    def test_bell_report(self):
        rep = evaluate_witnesses(BELL, BELL)
        assert rep.concurrence == pytest.approx(1.0, abs=1e-9)
        assert rep.fidelity == pytest.approx(1.0, abs=1e-9)
        assert rep.purity == pytest.approx(1.0, abs=1e-12)
        assert rep.mutual_information == pytest.approx(2.0, abs=1e-9)
        assert rep.discord == pytest.approx(1.0, abs=1e-6)

    def test_report_is_dataclass_with_diagnostics(self):
        rep = evaluate_witnesses(BELL, BELL)
        assert isinstance(rep, WitnessReport)
        assert "grid_max" in rep.diagnostics
