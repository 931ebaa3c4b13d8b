"""Sweep orchestration: configs, seeding, result trees, and manifests.

A run is fully described by a RunConfig; the same config always
produces a bit-identical result tree, which is enforced by hashing the
canonical config JSON into the output directory name, deriving every
random seed from list positions in the config, and writing a manifest
of artifact content hashes last. The screen of realisation k at the
strength of index i is seeded derive_seed(master, 0, i, k) and shared
by every state, so the states are compared through the same turbulence;
the counts of the state of index j are seeded derive_seed(master, j, i,
k, stream=1).

One sweep, run(), loops over strength, then realisation, then state: it
realises each realisation (tomography through the shared screen,
reconstruction), then one guarded step evaluates (witnesses, wrapping
number) what the config's mode chooses: each realisation of a static
config, or each strength's average of an ensemble config. run_static and
run_ensemble are run() for their own mode and refuse a config of the
other.

Turbulence strengths are converted to Fried parameters with the
fundamental-mode convention throughout the sweeps.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass
from numbers import Integral
from pathlib import Path

import numpy as np

# perfbench/tracing.py patches effective_channel here; nothing in this module calls it.
from skysim.channel import CountModel, effective_channel  # noqa: F401
from skysim.modes import Grid2D, LGMode, _check_resolution, make_grid
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
from skysim.turbulence import (
    PhaseScreen,
    TurbulenceSpec,
    _check_levels,
    _check_strength,
    generate_screen,
    omega_to_fried,
)
from skysim.witnesses import discord, evaluate_witnesses
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
]

DEFAULT_WAIST = 0.9375e-3

# The columns of witnesses.csv and summary.csv: WitnessReport fields, then
# the wrapping number.
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

    def __post_init__(self):
        if not (0 < self.w0 < np.inf and 0 < self.extent_factor < np.inf):
            raise ValueError(
                "w0 and extent_factor must be finite and > 0, "
                f"got {self.w0}, {self.extent_factor}"
            )
        _check_levels(self.n_subharmonics)
        # A grid that cannot hold a state's arm-B modes fails every
        # realisation alike, so it is refused before anything is written.
        grid = self.grid()
        known = catalog()
        for s in self.states:
            if s not in known:
                raise ValueError(f"unknown state id {s!r}")
            for ell in known[s].ells_b:
                _check_resolution(LGMode(ell=ell, w0=self.w0), grid)
        if not self.states:
            raise ValueError("need at least one state")
        if len(set(self.states)) != len(self.states):
            raise ValueError(f"duplicate state ids in {self.states}")
        if not isinstance(self.realisations, Integral) or self.realisations < 1:
            raise ValueError(
                f"need an integer number of realisations >= 1, got {self.realisations}"
            )
        if self.mode not in ("static", "ensemble"):
            raise ValueError(f"mode must be 'static' or 'ensemble', got {self.mode}")
        _check_master_seed(self.master_seed)
        if not self.omegas:
            raise ValueError("need at least one strength")
        for omega in self.omegas:
            _check_strength(omega)
        dirnames = [_omega_dirname(omega) for omega in self.omegas]
        if len(set(dirnames)) != len(dirnames):
            raise ValueError(
                f"strengths {self.omegas} share an output directory "
                f"({', '.join(dirnames)})"
            )

    def grid(self) -> Grid2D:
        return make_grid(self.grid_n, self.extent_factor * self.w0)


def _check_master_seed(seed) -> None:
    if not isinstance(seed, Integral) or seed < 0:
        raise ValueError(f"master seed must be a non-negative integer, got {seed}")


def config_to_json(config: RunConfig) -> dict:
    doc = asdict(config)
    doc["states"] = list(config.states)
    doc["omegas"] = [float(o) for o in config.omegas]
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
    """Collision-free seed for one task, stable across runs and platforms.

    Screens are seeded in _draw_screen alone, with state_idx 0, so every
    state of a sweep shares the screen of (strength omega_idx,
    realisation); a state's counts take its own state_idx and stream 1.
    """
    seq = np.random.SeedSequence(
        (master_seed, state_idx, omega_idx, realisation, stream)
    )
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _write_json(path: Path, doc: dict) -> None:
    # Numpy values (the skyrmion center is the one array) go out through tolist().
    text = json.dumps(doc, sort_keys=True, indent=2, default=lambda v: v.tolist())
    path.write_text(text + "\n")


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


def _write_manifest(run_dir: Path, cfg_hash: str, incomplete: list[str]) -> None:
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
    _write_json(run_dir / "manifest.json", doc)


def _evaluate(
    head: dict,
    body: dict,
    rho: DensityMatrix4,
    state: BipartitePureState,
    target: DensityMatrix4,
    discord_ref: float,
) -> dict:
    """head and body with the witnesses, then the wrapping number, of rho.

    A degenerate field gives a null number; its witnesses, evaluated
    first, are kept. Any other failure makes head an error document.
    """
    try:
        report = evaluate_witnesses(rho, target, discord_reference=discord_ref)
        try:
            number, details = skyrmion_number(rho, state, return_details=True)
        except DegenerateFieldError as exc:
            number, details = None, {"error": str(exc)}
    except Exception as exc:  # noqa: BLE001 - failures become artifacts
        return _error_doc(head, exc)
    skyrmion = {"number": number, **details}
    return {**head, **body, "witnesses": asdict(report), "skyrmion": skyrmion}


def _witness_values(doc: dict) -> list:
    """One evaluated document's _WITNESS_COLUMNS; None for a missing number."""
    values = {**doc["witnesses"], "skyrmion": doc["skyrmion"]["number"]}
    return [values[col] for col in _WITNESS_COLUMNS]


def _summary_row(state_id: str, omega: float, table: list[list]) -> list:
    """Mean and spread of each column of the rows of _witness_values."""
    row: list = [state_id, omega, len(table)]
    for j in range(len(_WITNESS_COLUMNS)):
        vals = np.array([v[j] for v in table if v[j] is not None])
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


def _require_mode(config: RunConfig, mode: str) -> None:
    if config.mode != mode:
        raise ValueError(
            f"run_{mode} takes a config of mode {mode!r}, got {config.mode!r}"
        )


def run_static(config: RunConfig, results_root) -> Path:
    """run() of a static config: every realisation is evaluated.

    Raises ValueError, before any directory is created, for an ensemble
    config.
    """
    _require_mode(config, "static")
    return run(config, results_root)


def run_ensemble(config: RunConfig, results_root) -> Path:
    """run() of an ensemble config: only each strength's average is evaluated.

    Raises ValueError, before any directory is created, for a static
    config.
    """
    _require_mode(config, "ensemble")
    return run(config, results_root)


def run(config: RunConfig, results_root) -> Path:
    """The sweep over (strength, realisation, state): realise, then evaluate.

    _realise_screen realises each realisation; its document is the
    realisation's JSON file. config.mode alone chooses what _evaluate
    then evaluates: a static config each realisation, with its
    renormalisation factor; an ensemble config, modelling detection
    slower than the channel fluctuations, only the average of each
    strength's realisations, whose document is ensemble.json (with one
    realisation this is exactly the static pipeline). In both modes a
    failed realisation or evaluation leaves an error document, listed as
    incomplete and left out of the average and the tables. The tables
    are read from the evaluated documents, rows by state, then strength,
    then realisation; the manifest is last.
    """
    ensemble = config.mode == "ensemble"
    run_dir, cfg_hash = _prepare_run_dir(config, results_root)
    grid = config.grid()
    cat = catalog()
    states = [cat[state_id] for state_id in config.states]
    targets = [DensityMatrix4.from_pure(state) for state in states]
    discords = [discord(target) for target in targets]
    incomplete: list[str] = []
    witness_rows: list[list[list]] = [[] for _ in states]
    summary_rows: list[list[list]] = [[] for _ in states]

    for omega_idx, omega in enumerate(config.omegas):
        omega_dirs = [run_dir / s / _omega_dirname(omega) for s in config.states]
        for omega_dir in omega_dirs:
            omega_dir.mkdir(parents=True, exist_ok=True)
        members: list[list[tuple[dict, DensityMatrix4]]] = [[] for _ in states]
        for k in range(config.realisations):
            realised = _realise_screen(config, states, omega_idx, k, grid)
            for i, (doc, rho, renormalization) in enumerate(realised):
                if rho is not None and not ensemble:
                    head = {"state": doc["state"], "omega": omega, "realisation": k}
                    body = {**doc, "renormalization": renormalization}
                    doc = _evaluate(head, body, rho, states[i], targets[i], discords[i])
                _write_json(omega_dirs[i] / f"realisation-{k}.json", doc)
                if "incomplete" in doc:
                    incomplete.append(f"{doc['state']}/{_omega_dirname(omega)}/{k}")
                else:
                    members[i].append((doc, rho))
        for i, (state_id, done) in enumerate(zip(config.states, members)):
            evaluated = [(doc["realisation"], doc) for doc, _ in done]
            if ensemble and done:
                rho = ensemble_average([rho for _, rho in done])
                seeds = [d["record"]["provenance"]["seed"] for d, _ in done]
                head = dict(state=state_id, omega=omega, n=len(done), seeds=seeds)
                body = {"density": density_to_json(rho)}
                doc = _evaluate(head, body, rho, states[i], targets[i], discords[i])
                if "incomplete" in doc:
                    incomplete.append(f"{state_id}/{_omega_dirname(omega)}/ensemble")
                    evaluated = []
                else:
                    doc["purity"] = doc["witnesses"]["purity"]
                    evaluated = [(-1, doc)]
                _write_json(omega_dirs[i] / "ensemble.json", doc)
            rows = [[state_id, omega, k, *_witness_values(doc)] for k, doc in evaluated]
            witness_rows[i] += rows
            summary_rows[i].append(
                _summary_row(state_id, omega, [row[3:] for row in rows])
            )

    _write_witness_tables(
        run_dir,
        [row for rows in witness_rows for row in rows],
        [row for rows in summary_rows for row in rows],
    )
    _write_manifest(run_dir, cfg_hash, incomplete)
    return run_dir


def _draw_screen(
    master_seed: int, omega_idx: int, k: int, r0: float, grid: Grid2D,
    n_subharmonics: int,
) -> PhaseScreen:
    """Screen k of the strength of index omega_idx.

    The one place a screen seed is formed: sweeps, calibration and the
    screens command all draw through here.
    """
    seed = derive_seed(master_seed, 0, omega_idx, k)
    return generate_screen(
        TurbulenceSpec(r0=r0, grid=grid, seed=seed, n_subharmonics=n_subharmonics)
    )


def _realise_screen(
    config: RunConfig,
    states: list[BipartitePureState],
    omega_idx: int,
    k: int,
    grid: Grid2D,
) -> list[tuple[dict, DensityMatrix4 | None, float | None]]:
    """Every state's realisation k at one strength, through one screen.

    Realises only: returns, per state, a document holding the tomography
    record through the screen and the reconstructed density, the density,
    and its renormalisation factor. A failure makes the document an error
    and the density and factor None; a screen that cannot be drawn fails
    every state.
    """
    omega = config.omegas[omega_idx]
    heads = [{"state": s, "omega": omega, "realisation": k} for s in config.states]
    r0 = omega_to_fried(omega, 0, config.w0)
    try:
        screen = _draw_screen(
            config.master_seed, omega_idx, k, r0, grid, config.n_subharmonics
        )
    except Exception as exc:  # noqa: BLE001 - failures become artifacts
        return [(_error_doc(head, exc), None, None) for head in heads]
    realised = []
    for state_idx, (state, head) in enumerate(zip(states, heads)):
        try:
            record = simulate_tomography(
                state,
                screen=screen,
                w0=config.w0,
                count_model=config.count_model,
                seed=derive_seed(config.master_seed, state_idx, omega_idx, k, stream=1),
                state_id=head["state"],
                omega=omega,
            )
            doc = {**head, "record": record_to_json(record)}
            rho, diag = reconstruct_density(record, return_diagnostics=True)
            doc["density"] = density_to_json(rho)
            realised.append((doc, rho, diag["renormalization"]))
        except Exception as exc:  # noqa: BLE001 - failures become artifacts
            realised.append((_error_doc(head, exc), None, None))
    return realised


def _error_doc(head: dict, exc: Exception) -> dict:
    return {**head, "error": f"{type(exc).__name__}: {exc}", "incomplete": True}


def _write_witness_tables(run_dir, witness_rows, summary_rows):
    _write_csv(
        run_dir / "witnesses.csv",
        ["state", "omega", "realisation", *_WITNESS_COLUMNS],
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
    Raises ValueError for no strength, a screen count or window that is
    not an integer >= 1 or >= 0, a seed that is not a non-negative
    integer, subharmonic levels outside the integers 0-8, a grid size
    that is not an even integer >= 16, a waist or extent factor that is
    not finite and positive, or a strength that is negative or not
    finite, and SamplingError when the grid cannot resolve every mode in
    the window; all before any screen is drawn.
    """
    from skysim.channel import crosstalk_amplitude, survival_probability_analytic

    omegas = tuple(omegas)
    if not isinstance(n_screens, Integral) or n_screens < 1:
        raise ValueError(
            f"need at least one screen per strength, as an integer, got {n_screens}"
        )
    if not isinstance(window, Integral) or window < 0:
        raise ValueError(f"window must be an integer >= 0, got {window}")
    _check_master_seed(seed)

    grid = make_grid(grid_n, extent_factor * w0)
    # Mode radius grows with |ell|, so these two bound the whole window;
    # an unresolvable one fails here, before any screen is drawn.
    for ell in (0, window):
        _check_resolution(LGMode(ell=ell, w0=w0), grid)
    ells = list(range(-window, window + 1))
    # A strength that cannot be converted fails here, before any screen is drawn.
    r0s = [omega_to_fried(omega, 0, w0) for omega in omegas]
    if not r0s:
        raise ValueError("need at least one strength")
    spectra_rows, survival_rows = [], []
    for omega_idx, (omega, r0) in enumerate(zip(omegas, r0s)):
        powers = np.empty((n_screens, len(ells)))
        for k in range(n_screens):
            screen = _draw_screen(seed, omega_idx, k, r0, grid, n_subharmonics)
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
