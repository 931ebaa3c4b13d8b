"""Two-qubit OAM states, projective tomography, and density matrices.

A source state is a superposition of two index-anticorrelated branches,

    |psi> = c1 |ell1, -ell1> + c2 e^(i*theta) |ell2, -ell2>,

encoded as a logical two-qubit state by mapping branch 1 to |0> and
branch 2 to |1> on each arm. All density matrices use the product basis
(|00>, |01>, |10>, |11>) with photon A first.

Tomography follows the standard over-complete six-projector scheme per
arm: both logical basis states plus four equatorial superpositions. The
36 pair probabilities sum to 9 times the trace of the effective state,
which is what lets the reconstruction renormalize away channel loss.
Reconstruction is one fixed pseudo-inverse from the 36 settings to the
15 Pauli components of the state (see `pauli_components`), followed by
a repair when that linear solution is not positive.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from skysim.channel import CountModel, effective_channel, projective_probability
from skysim.turbulence import PhaseScreen

__all__ = [
    "Projector",
    "BipartitePureState",
    "DensityMatrix4",
    "TomographyRecord",
    "make_state",
    "catalog",
    "tomography_set",
    "projector_pairs",
    "simulate_tomography",
    "reconstruct_density",
    "ensemble_average",
    "partial_trace",
    "record_to_json",
    "record_from_json",
    "density_to_json",
    "density_from_json",
    "screen_digest",
]

_PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# _PAULI_PAIRS[mu, nu] = sigma_mu x sigma_nu, with sigma_0 the identity.
_PAULI_PAIRS = np.einsum("mij,nkl->mnikjl", _PAULI, _PAULI).reshape(4, 4, 4, 4)

_PROVENANCE_KEYS = ("state_id", "omega", "seed", "screen_hash")


@dataclass
class Projector:
    """Rank-one local projector given as a normalized logical ket."""

    label: str
    ket: np.ndarray

    def __post_init__(self):
        self.ket = np.asarray(self.ket, dtype=complex)
        if self.ket.shape != (2,):
            raise ValueError(f"projector ket must be length 2, got {self.ket.shape}")
        norm = np.linalg.norm(self.ket)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"projector {self.label!r} is not normalized ({norm})")

    def bloch(self) -> np.ndarray:
        """Real Bloch vector <v|sigma|v>."""
        return np.array(
            [np.real(np.conj(self.ket) @ (s @ self.ket)) for s in _PAULI[1:]]
        )


def tomography_set() -> list[Projector]:
    """The six local projectors, in canonical order.

    Logical 0 and 1, then the equatorial states (|0> + e^(i*theta)|1>)/sqrt(2)
    at theta = 0, 90, 180, 270 degrees. The six rank-one operators span
    the full single-qubit operator space, so pairs of them determine a
    two-qubit state completely.
    """
    inv = 1 / np.sqrt(2)
    out = [
        Projector("0", np.array([1.0, 0.0])),
        Projector("1", np.array([0.0, 1.0])),
    ]
    for deg in (0, 90, 180, 270):
        phase = np.exp(1j * np.deg2rad(deg))
        out.append(Projector(f"s{deg}", np.array([inv, inv * phase])))
    return out


def projector_pairs() -> list[tuple[Projector, Projector]]:
    """All 36 (A, B) projector pairs; A varies slowest."""
    local = tomography_set()
    return [(a, b) for a in local for b in local]


@dataclass(frozen=True)
class BipartitePureState:
    """Two-branch OAM Bell-like state with its logical encoding."""

    ell_a1: int
    ell_a2: int
    relative_phase: float = 0.0
    coefficients: tuple[complex, complex] = (1 / np.sqrt(2), 1 / np.sqrt(2))

    def __post_init__(self):
        if self.ell_a1 == self.ell_a2:
            raise ValueError(
                f"branch indices must differ, got {self.ell_a1} twice"
            )
        c1, c2 = self.coefficients
        if abs(abs(c1) ** 2 + abs(c2) ** 2 - 1.0) > 1e-12:
            raise ValueError("branch coefficients must have unit square sum")

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
        c1, c2 = self.coefficients
        return np.array([c1, c2 * np.exp(1j * self.relative_phase)])

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
    base = [
        ("0_1", (0, 1, 0.0)),
        ("0_2", (0, 2, 0.0)),
        ("0_3", (0, 3, 0.0)),
        ("0_1_phase", (0, 1, -np.pi / 2)),
        ("2_3", (2, 3, 0.0)),
    ]
    out: dict[str, BipartitePureState] = {}
    for name, (l1, l2, th) in base:
        out[name] = make_state(l1, l2, th)
    for name, (l1, l2, th) in base:
        swapped = make_state(-l1, -l2, th)
        out[_swap_name(name)] = swapped
    return out


def _swap_name(name: str) -> str:
    head, sep, _ = name.partition("_phase")
    l1, l2 = head.split("_")

    def flip(s: str) -> str:
        if s == "0":
            return "0"
        return s[1:] if s.startswith("m") else "m" + s

    return f"{flip(l1)}_{flip(l2)}{sep}"


@dataclass(eq=False)
class DensityMatrix4:
    """Validated two-qubit density matrix in the product basis."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got {m.shape}")
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

    @property
    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))


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


def screen_digest(screen: PhaseScreen | None) -> str:
    """Content hash tying a tomography record to its channel realisation."""
    if screen is None:
        return ""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(screen.phase, dtype="<f8").tobytes())
    return h.hexdigest()


@dataclass
class TomographyRecord:
    """36 measurement settings with probabilities or Poisson counts.

    Provenance must identify the state, the channel strength, the seed,
    and the screen content hash; records without it cannot be serialized,
    which keeps every stored reconstruction traceable to its inputs.
    """

    kind: str
    entries: list[tuple[str, str, float]]
    provenance: dict
    count_model: CountModel | None = None

    def __post_init__(self):
        if self.kind not in ("probability", "counts"):
            raise ValueError(f"kind must be 'probability' or 'counts', got {self.kind}")
        if len(self.entries) != 36:
            raise ValueError(f"expected 36 entries, got {len(self.entries)}")
        if self.kind == "counts" and self.count_model is None:
            raise ValueError("counts records must carry their CountModel")
        for la, lb, v in self.entries:
            if v < 0:
                raise ValueError(f"negative entry for ({la}, {lb}): {v}")

    def values(self) -> np.ndarray:
        """Entry values in canonical projector-pair order."""
        order = {
            (a.label, b.label): i for i, (a, b) in enumerate(projector_pairs())
        }
        out = np.empty(36)
        seen = set()
        for la, lb, v in self.entries:
            key = (la, lb)
            if key not in order:
                raise ValueError(f"unknown projector pair {key}")
            if key in seen:
                raise ValueError(f"duplicate projector pair {key}")
            seen.add(key)
            out[order[key]] = v
        return out


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
    otherwise they are exact probabilities.
    """
    channel = effective_channel(state, screen, w0)
    probs = np.array(
        [
            projective_probability(state, pa, pb, channel=channel)
            for pa, pb in projector_pairs()
        ]
    )
    provenance = {
        "state_id": state_id,
        "omega": float(omega),
        "seed": int(screen.spec.seed if screen is not None else seed),
        "screen_hash": screen_digest(screen),
    }
    labels = [(a.label, b.label) for a, b in projector_pairs()]
    if count_model is None:
        entries = [(la, lb, float(p)) for (la, lb), p in zip(labels, probs)]
        return TomographyRecord("probability", entries, provenance)

    rng = np.random.default_rng(seed)
    lam_acc = count_model.accidental_rate * count_model.integration
    expected = count_model.pair_budget * probs + lam_acc
    counts = rng.poisson(expected)
    entries = [(la, lb, float(c)) for (la, lb), c in zip(labels, counts)]
    provenance["counts_seed"] = int(seed)
    return TomographyRecord("counts", entries, provenance, count_model=count_model)


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


# Row k is pauli_components of projector pair k, outer((1, n_a), (1, n_b)),
# without its [0, 0] entry, so 4 p_k - 1 = row k . r.ravel()[1:].
_DESIGN = np.array(
    [
        np.outer([1, *a.bloch()], [1, *b.bloch()]).ravel()[1:]
        for a, b in projector_pairs()
    ]
)
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

    Returns the DensityMatrix4, or (DensityMatrix4, diagnostics dict)
    when return_diagnostics is set. The diagnostics hold the record
    kind, the renormalization, the linear residual, the method (always
    "linear") and whether the repair ran.
    """
    raw = record.values()
    diagnostics: dict = {"kind": record.kind}
    if record.kind == "counts":
        cm = record.count_model
        lam_acc = cm.accidental_rate * cm.integration
        net = np.clip(raw - lam_acc, 0.0, None)
        if cm.pair_budget <= 0:
            raise ValueError("count model has a zero pair budget")
        probs = net / cm.pair_budget
    else:
        probs = raw.copy()
    total = probs.sum()
    if total <= 0:
        raise ValueError("record carries no signal after accidental subtraction")
    renorm = 9.0 / total
    probs = probs * renorm
    diagnostics["renormalization"] = renorm

    target = 4.0 * probs - 1.0
    x = _DESIGN_PINV @ target
    diagnostics["linear_residual"] = float(np.sum((_DESIGN @ x - target) ** 2))
    diagnostics["method"] = "linear"

    rho = _from_pauli_components(np.concatenate([[1.0], x]).reshape(4, 4))
    rho = (rho + rho.conj().T) / 2.0
    eigmin = float(np.linalg.eigvalsh(rho).min())
    diagnostics["repaired"] = eigmin < -1e-10
    if diagnostics["repaired"]:
        rho = rho @ rho
        rho = rho / np.trace(rho).real
    else:
        rho = rho / np.trace(rho).real
    result = DensityMatrix4(rho)
    if return_diagnostics:
        return result, diagnostics
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
    for key in _PROVENANCE_KEYS:
        if key not in record.provenance:
            raise ValueError(f"record provenance is missing {key!r}; refusing to save")
    doc = {
        "kind": record.kind,
        "entries": [[la, lb, v] for la, lb, v in record.entries],
        "provenance": dict(record.provenance),
    }
    if record.count_model is not None:
        cm = record.count_model
        doc["count_model"] = {
            "pair_rate": cm.pair_rate,
            "singles_rate_a": cm.singles_rate_a,
            "singles_rate_b": cm.singles_rate_b,
            "gate": cm.gate,
            "integration": cm.integration,
        }
    return doc


def record_from_json(doc: dict) -> TomographyRecord:
    for key in _PROVENANCE_KEYS:
        if key not in doc.get("provenance", {}):
            raise ValueError(f"stored record is missing provenance key {key!r}")
    cm = None
    if "count_model" in doc:
        cm = CountModel(**doc["count_model"])
    entries = [(la, lb, float(v)) for la, lb, v in doc["entries"]]
    return TomographyRecord(doc["kind"], entries, dict(doc["provenance"]), cm)
