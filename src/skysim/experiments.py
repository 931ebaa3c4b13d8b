"""Sweep orchestration: configs, seeding, result trees, and manifests.

A run is fully described by a RunConfig; the same config always
produces a bit-identical result tree, which is enforced by hashing the
canonical config JSON into the output directory name, deriving every
random seed from the (master seed, state, strength, realisation)
coordinates, and writing a manifest of artifact content hashes last.

Static and ensemble runs share one sweep loop. Every realisation is
realised (screen, tomography, reconstruction) and written; a static run
then evaluates each one (witnesses, wrapping number), while an ensemble
run evaluates only the average of each strength's realisations.

Turbulence strengths are converted to Fried parameters with the
fundamental-mode convention throughout the sweeps.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from skysim.channel import CountModel, effective_channel
from skysim.modes import Grid2D, make_grid
from skysim.states import (
    BipartitePureState,
    DensityMatrix4,
    catalog,
    density_to_json,
    ensemble_average,
    reconstruct_density,
    record_to_json,
    simulate_tomography,
)
from skysim.turbulence import TurbulenceSpec, generate_screen, omega_to_fried
from skysim.witnesses import WitnessReport, discord, evaluate_witnesses
from skysim.topology import DegenerateFieldError, skyrmion_number

__all__ = [
    "DEFAULT_WAIST",
    "RunConfig",
    "config_to_json",
    "config_from_json",
    "config_hash",
    "derive_seed",
    "run",
    "run_static",
    "run_ensemble",
    "run_calibration",
    "write_manifest",
]

DEFAULT_WAIST = 0.9375e-3

_WITNESS_COLUMNS = (
    "concurrence",
    "fidelity",
    "purity",
    "mutual_information",
    "classical_correlation",
    "discord",
    "skyrmion",
)


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a sweep."""

    states: tuple[str, ...] = ("0_1",)
    omegas: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
    realisations: int = 10
    grid_n: int = 256
    extent_factor: float = 16.0
    w0: float = DEFAULT_WAIST
    master_seed: int = 0
    mode: str = "static"
    n_subharmonics: int = 5
    count_model: CountModel | None = None
    use_tomography: bool = True
    window: int = 10

    def __post_init__(self):
        known = catalog()
        for s in self.states:
            if s not in known:
                raise ValueError(f"unknown state id {s!r}")
        if self.realisations < 1:
            raise ValueError("need at least one realisation")
        if self.mode not in ("static", "ensemble"):
            raise ValueError(f"mode must be 'static' or 'ensemble', got {self.mode}")
        if self.master_seed < 0:
            raise ValueError("master seed must be non-negative")
        for omega in self.omegas:
            if omega < 0:
                raise ValueError(f"turbulence strength must be >= 0, got {omega}")

    def grid(self) -> Grid2D:
        return make_grid(self.grid_n, self.extent_factor * self.w0)


def config_to_json(config: RunConfig) -> dict:
    doc = asdict(config)
    doc["states"] = list(config.states)
    doc["omegas"] = [float(o) for o in config.omegas]
    if config.count_model is not None:
        doc["count_model"] = asdict(config.count_model)
    return doc


def config_from_json(doc: dict) -> RunConfig:
    doc = dict(doc)
    doc["states"] = tuple(doc["states"])
    doc["omegas"] = tuple(float(o) for o in doc["omegas"])
    if doc.get("count_model") is not None:
        doc["count_model"] = CountModel(**doc["count_model"])
    return RunConfig(**doc)


def config_hash(config: RunConfig) -> str:
    text = json.dumps(config_to_json(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def derive_seed(
    master_seed: int, state_idx: int, omega_idx: int, realisation: int, stream: int = 0
) -> int:
    """Collision-free seed for one task, stable across runs and platforms."""
    seq = np.random.SeedSequence(
        (master_seed, state_idx, omega_idx, realisation, stream)
    )
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _jsonable(value):
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(_jsonable(doc), sort_keys=True, indent=2) + "\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    return f"{value:.12g}"


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else _fmt(v) for v in row])


def write_manifest(run_dir: Path, cfg_hash: str, incomplete: list[str]) -> Path:
    """Hash every artifact in the tree; written last by design."""
    artifacts = {}
    for p in sorted(run_dir.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            artifacts[str(p.relative_to(run_dir))] = hashlib.sha256(
                p.read_bytes()
            ).hexdigest()
    doc = {
        "config_hash": cfg_hash,
        "artifacts": artifacts,
        "incomplete": sorted(incomplete),
    }
    path = run_dir / "manifest.json"
    _write_json(path, doc)
    return path


@dataclass
class _TaskResult:
    state_id: str
    omega: float
    realisation: int
    rho: DensityMatrix4 | None = None
    record_doc: dict | None = None
    renormalization: float | None = None
    report: WitnessReport | None = None
    skyrmion: float | None = None
    sky_details: dict | None = None
    error: str | None = None


def _realise(
    res: _TaskResult,
    config: RunConfig,
    state: BipartitePureState,
    state_idx: int,
    omega_idx: int,
    grid: Grid2D,
) -> None:
    """Screen, tomography and reconstruction: fill in res.rho and its record."""
    k = res.realisation
    screen_seed = derive_seed(config.master_seed, state_idx, omega_idx, k)
    r0 = omega_to_fried(res.omega, 0, config.w0)
    screen = generate_screen(
        TurbulenceSpec(
            r0=r0,
            grid=grid,
            seed=screen_seed,
            n_subharmonics=config.n_subharmonics,
        )
    )
    counts_seed = derive_seed(config.master_seed, state_idx, omega_idx, k, stream=1)
    record = simulate_tomography(
        state,
        screen=screen,
        w0=config.w0,
        count_model=config.count_model,
        seed=counts_seed,
        state_id=res.state_id,
        omega=res.omega,
    )
    res.record_doc = record_to_json(record)
    if config.use_tomography:
        rho, diag = reconstruct_density(record, return_diagnostics=True)
        res.renormalization = diag["renormalization"]
    else:
        channel = effective_channel(state, screen, config.w0)
        amps = state.branch_amplitudes
        psi = np.kron(np.eye(2), channel) @ np.array([amps[0], 0, 0, amps[1]])
        psi = psi / np.linalg.norm(psi)
        rho = DensityMatrix4(np.outer(psi, psi.conj()))
    res.rho = rho


def _evaluate(
    res: _TaskResult,
    state: BipartitePureState,
    target: DensityMatrix4,
    discord_ref: float,
) -> None:
    """Witnesses, then the wrapping number, of res.rho.

    A degenerate field leaves res without a wrapping number; its
    witnesses, evaluated first, are kept.
    """
    res.report = evaluate_witnesses(res.rho, target, discord_reference=discord_ref)
    try:
        res.skyrmion, res.sky_details = skyrmion_number(
            res.rho, state, return_details=True
        )
    except DegenerateFieldError as exc:
        res.sky_details = {"error": str(exc)}


def _witness_doc(rep: WitnessReport) -> dict:
    return {
        "concurrence": rep.concurrence,
        "fidelity": rep.fidelity,
        "purity": rep.purity,
        "mutual_information": rep.mutual_information,
        "classical_correlation": rep.classical_correlation,
        "discord": rep.discord,
        "discord_normalized": rep.discord_normalized,
        "diagnostics": rep.diagnostics,
    }


def _skyrmion_doc(res: _TaskResult) -> dict:
    return {"number": res.skyrmion, **res.sky_details}


def _member_doc(res: _TaskResult) -> dict:
    """One realisation's artifact: an error, or its state and evaluation."""
    doc = {"state": res.state_id, "omega": res.omega, "realisation": res.realisation}
    if res.error is not None:
        return {**doc, "error": res.error, "incomplete": True}
    doc.update(record=res.record_doc, density=density_to_json(res.rho))
    if res.report is not None:
        doc.update(
            renormalization=res.renormalization,
            witnesses=_witness_doc(res.report),
            skyrmion=_skyrmion_doc(res),
        )
    return doc


def _witness_row(res: _TaskResult) -> list:
    rep = res.report
    return [
        res.state_id,
        res.omega,
        res.realisation,
        rep.concurrence,
        rep.fidelity,
        rep.purity,
        rep.mutual_information,
        rep.classical_correlation,
        rep.discord,
        res.skyrmion,
    ]


def _summary_row(state_id: str, omega: float, done: list[_TaskResult]) -> list:
    row: list = [state_id, omega, len(done)]
    for col in _WITNESS_COLUMNS:
        vals = np.array(
            [
                r.skyrmion if col == "skyrmion" else getattr(r.report, col)
                for r in done
                if not (col == "skyrmion" and r.skyrmion is None)
            ]
        )
        if vals.size == 0:
            row += [None, None]
            continue
        row.append(float(vals.mean()))
        row.append(float(vals.std(ddof=1)) if vals.size > 1 else None)
    return row


def _omega_dirname(omega: float) -> str:
    return f"omega-{omega:.2f}"


def _prepare_run_dir(config: RunConfig, results_root) -> tuple[Path, str]:
    cfg_hash = config_hash(config)
    run_dir = Path(results_root) / cfg_hash[:12]
    run_dir.mkdir(parents=True, exist_ok=True)
    _write_json(run_dir / "config.json", config_to_json(config))
    return run_dir, cfg_hash


def run(config: RunConfig, results_root) -> Path:
    if config.mode == "ensemble":
        return run_ensemble(config, results_root)
    return run_static(config, results_root)


def run_static(config: RunConfig, results_root) -> Path:
    """Per-realisation pipeline: screen, tomography, witnesses, topology.

    Every realisation lands in its own JSON file; aggregate tables are
    written alongside, the manifest last. Failed realisations are
    captured as error artifacts instead of aborting the sweep; a
    realisation whose wrapping number alone cannot be computed keeps
    its witnesses beside a null number.
    """
    return _sweep(config, results_root, ensemble=False)


def run_ensemble(config: RunConfig, results_root) -> Path:
    """Average the reconstructed realisations before evaluating.

    Models detection slower than the channel fluctuations: each
    realisation's record and density are written, but witnesses and
    the wrapping number are computed only once per strength, on the
    ensemble-averaged state. A realisation is left out of the average
    only if its screen, tomography or reconstruction fails. With one
    realisation this reduces exactly to the static pipeline.
    """
    return _sweep(config, results_root, ensemble=True)


def _sweep(config: RunConfig, results_root, ensemble: bool) -> Path:
    """The loop over (state, strength, realisation) behind both modes.

    Each realisation is realised and written. The modes differ only in
    what they evaluate: a static sweep every realisation, an ensemble
    sweep only the average of the realisations of each strength.
    """
    run_dir, cfg_hash = _prepare_run_dir(config, results_root)
    grid = config.grid()
    cat = catalog()
    incomplete: list[str] = []
    witness_rows: list[list] = []
    summary_rows: list[list] = []

    for state_idx, state_id in enumerate(config.states):
        state = cat[state_id]
        target = DensityMatrix4.from_pure(state)
        evaluate = partial(
            _evaluate, state=state, target=target, discord_ref=discord(target)
        )
        for omega_idx, omega in enumerate(config.omegas):
            omega_dir = run_dir / state_id / _omega_dirname(omega)
            omega_dir.mkdir(parents=True, exist_ok=True)
            members: list[_TaskResult] = []
            for k in range(config.realisations):
                res = _TaskResult(state_id=state_id, omega=omega, realisation=k)
                try:
                    _realise(res, config, state, state_idx, omega_idx, grid)
                    if not ensemble:
                        evaluate(res)
                except Exception as exc:  # noqa: BLE001 - failures become artifacts
                    res.error = f"{type(exc).__name__}: {exc}"
                _write_json(omega_dir / f"realisation-{k}.json", _member_doc(res))
                if res.error is not None:
                    incomplete.append(f"{state_id}/{_omega_dirname(omega)}/{k}")
                    continue
                members.append(res)
            if not ensemble:
                evaluated = members
            elif members:
                mean = _evaluate_average(members, evaluate)
                _write_json(omega_dir / "ensemble.json", _ensemble_doc(mean, members))
                evaluated = [mean]
            else:
                evaluated = []
            witness_rows += [_witness_row(r) for r in evaluated]
            summary_rows.append(_summary_row(state_id, omega, evaluated))
    _write_witness_tables(run_dir, witness_rows, summary_rows)
    write_manifest(run_dir, cfg_hash, incomplete)
    return run_dir


def _evaluate_average(members: list[_TaskResult], evaluate) -> _TaskResult:
    """Average the members and evaluate the mean state."""
    mean = _TaskResult(
        state_id=members[0].state_id,
        omega=members[0].omega,
        realisation=-1,
        rho=ensemble_average([m.rho for m in members]),
    )
    evaluate(mean)
    return mean


def _ensemble_doc(mean: _TaskResult, members: list[_TaskResult]) -> dict:
    return {
        "state": mean.state_id,
        "omega": mean.omega,
        "n": len(members),
        "seeds": [m.record_doc["provenance"]["seed"] for m in members],
        "density": density_to_json(mean.rho),
        "purity": mean.report.purity,
        "witnesses": _witness_doc(mean.report),
        "skyrmion": _skyrmion_doc(mean),
    }


def _write_witness_tables(run_dir, witness_rows, summary_rows):
    _write_csv(
        run_dir / "witnesses.csv",
        [
            "state",
            "omega",
            "realisation",
            "concurrence",
            "fidelity",
            "purity",
            "mutual_information",
            "classical_correlation",
            "discord",
            "skyrmion",
        ],
        witness_rows,
    )
    header = ["state", "omega", "n_ok"]
    for col in _WITNESS_COLUMNS:
        header += [f"{col}_mean", f"{col}_std"]
    _write_csv(run_dir / "summary.csv", header, summary_rows)


def run_calibration(
    omegas,
    n_screens: int = 100,
    seed: int = 0,
    grid_n: int = 256,
    extent_factor: float = 16.0,
    w0: float = DEFAULT_WAIST,
    window: int = 10,
    n_subharmonics: int = 5,
) -> dict:
    """Fundamental-mode crosstalk spectra against the analytic survival.

    For each strength, propagates the zero-index mode through fresh
    screens and accumulates the output spectrum over indices within
    +-window. Returns spectra and survival tables ready for CSV export.
    Raises ValueError for fewer than one screen per strength.
    """
    from skysim.channel import crosstalk_amplitude, survival_probability_analytic

    if n_screens < 1:
        raise ValueError(f"need at least one screen per strength, got {n_screens}")

    grid = make_grid(grid_n, extent_factor * w0)
    ells = list(range(-window, window + 1))
    spectra_rows, survival_rows = [], []
    for omega_idx, omega in enumerate(omegas):
        r0 = omega_to_fried(omega, 0, w0)
        powers = np.empty((n_screens, len(ells)))
        for k in range(n_screens):
            screen_seed = derive_seed(seed, 0, omega_idx, k)
            screen = generate_screen(
                TurbulenceSpec(
                    r0=r0, grid=grid, seed=screen_seed,
                    n_subharmonics=n_subharmonics,
                )
            )
            for j, ell_out in enumerate(ells):
                amp = crosstalk_amplitude(0, ell_out, screen, w0)
                powers[k, j] = abs(amp) ** 2
        mean = powers.mean(axis=0)
        std = powers.std(axis=0, ddof=1) if n_screens > 1 else np.zeros(len(ells))
        for j, ell_out in enumerate(ells):
            spectra_rows.append([omega, ell_out, float(mean[j]), float(std[j])])
        j0 = ells.index(0)
        survival_rows.append(
            [
                omega,
                float(mean[j0]),
                float(std[j0]),
                survival_probability_analytic(omega),
            ]
        )
    return {"spectra": spectra_rows, "survival": survival_rows, "window": window}
