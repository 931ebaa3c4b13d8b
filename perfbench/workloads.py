"""The benchmark's workloads: inputs from a seed, one timed round, checks.

A round is one call of a public `skysim.experiments` entry point on a
config made here from the benchmark seed and the round index; the
program sees only that config. Every round of a workload does the same
amount of work, so `failed` is the same share of `attempted` whatever
the seed and however many rounds fit in a run.

The checks test properties of the method or recompute a quantity
independently from what the round wrote; none compares against stored
output of an earlier version.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from skysim.channel import CountModel, survival_probability_analytic
from skysim.experiments import RunConfig, run_calibration, run_ensemble, run_static
from skysim.states import catalog

# The calibration spans the paper's range of strengths.
CALIBRATION_OMEGAS = (0.5, 1.0, 1.5, 2.0)
# The per-realisation wrapping number fails now and then from 1.5 up
# (512², exact probabilities): 2 of 48 realisations of 0_m1_phase at
# 2.0, 1 of 300 of both states at 1.5. At 1.0 none of 300 failed, but
# the worst coverage margin came within 0.03 of the threshold
# cos 30° = 0.866; up to 0.75 the worst of 600 was 0.991.
STATIC_OMEGAS = (0.25, 0.5, 0.75)
# The ensemble sweep stays where its outputs were right on every seed
# tried (README.md, "Left out"). Stronger, the discarded per-realisation
# wrapping number fails now and then (2 of 240 realisations of 0_m2 at
# 0.5; 1 of 160 of 0_1 at 1.0) and takes a valid state out of the
# average, and the wrapping number of the average itself fails on some
# seeds from 1.0 up. At 0.5 the worst coverage margin of 400
# realisations of 0_1 and 0_m1 was 0.987; with 6 realisations the
# average's purity at 0.5 stayed at least 0.028 below that at 0.1.
ENSEMBLE_OMEGAS = (0.1, 0.5)

# Criterion 3 of the acceptance suite: a realisation's wrapping number
# is the target within 0.1.
WRAP_TOL = 0.1
# Exact-probability tomography of a pure state sent through a linear
# one-arm channel reconstructs a pure state.
PURE_TOL = 1e-9
# The ensemble density is a plain mean of the realisation densities.
MEAN_TOL = 1e-12
# Power of a windowed spectrum cannot exceed the input's unit power.
POWER_TOL = 1e-9
# Mean simulated survival lies within this many per-screen standard
# deviations of the closed-form curve. With 8 screens the spread is
# itself noisy: over 100 groups of 8 screens at omega = 2.0, 5 % had a
# pull above 3 and the largest was 4.76 (README.md).
SURVIVAL_PULL_MAX = 6.0
# Neighbouring strengths may invert their order by at most this many
# combined standard errors of the two means.
TREND_Z = 3.0

CALIBRATION_SCREENS = 8
ENSEMBLE_REALISATIONS = 6


def master_seed(seed: int, round_idx: int) -> int:
    """Seed of one round; distinct for every (benchmark seed, round)."""
    return seed * 1000 + round_idx


def _matrix(doc: dict) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in doc["matrix"]])


def _purity(m: np.ndarray) -> float:
    return float(np.real(np.trace(m @ m)))


def load_tree(run_dir: Path) -> dict:
    """What a sweep left on disk, keyed by the coordinates in each file."""
    realisations, ensembles = {}, {}
    n_files = n_bytes = 0
    for p in sorted(run_dir.rglob("*")):
        if not p.is_file():
            continue
        n_files += 1
        n_bytes += p.stat().st_size
        if p.suffix != ".json" or p.parent == run_dir:
            continue
        doc = json.loads(p.read_text())
        key = (doc["state"], float(doc["omega"]))
        if p.name == "ensemble.json":
            ensembles[key] = doc
        else:
            realisations[key + (doc["realisation"],)] = doc
    docs = list(realisations.values()) + list(ensembles.values())
    return {
        "manifest": json.loads((run_dir / "manifest.json").read_text()),
        "realisations": realisations,
        "ensembles": ensembles,
        "files": n_files,
        "bytes": n_bytes,
        "witness_blocks": sum("witnesses" in d for d in docs),
        "wrapping_numbers": sum(
            d.get("skyrmion", {}).get("number") is not None for d in docs
        ),
    }


def _incomplete_key(state_id: str, omega: float, k: int) -> str:
    return f"{state_id}/omega-{omega:.2f}/{k}"


def _members(cfg: RunConfig, tree: dict, state_id: str, omega: float, problems):
    """Completed realisation docs of one (state, strength), and failures."""
    done, failed = [], []
    for k in range(cfg.realisations):
        doc = tree["realisations"].get((state_id, omega, k))
        if doc is None:
            problems.append(f"{state_id} omega={omega} #{k}: no realisation file")
        elif "error" in doc:
            failed.append(_incomplete_key(state_id, omega, k))
        else:
            done.append(doc)
    return done, failed


def _check_manifest(tree: dict, failed: list[str], problems: list[str]) -> None:
    if sorted(tree["manifest"]["incomplete"]) != sorted(failed):
        problems.append(
            f"manifest lists incomplete {tree['manifest']['incomplete']}, "
            f"realisation files say {failed}"
        )


def check_static(cfg: RunConfig, tree: dict) -> tuple[int, list[str]]:
    """(failed realisations, problems) of one static sweep."""
    problems: list[str] = []
    failed: list[str] = []
    cat = catalog()
    for state_id in cfg.states:
        target = sum(cat[state_id].ells_a)
        for omega in cfg.omegas:
            done, bad = _members(cfg, tree, state_id, omega, problems)
            failed += bad
            for doc in done:
                where = f"{state_id} omega={omega} #{doc['realisation']}"
                number = doc["skyrmion"]["number"]
                if not abs(number - target) <= WRAP_TOL:
                    problems.append(f"{where}: wrapping {number} vs target {target}")
                purity = _purity(_matrix(doc["density"]))
                if not abs(purity - 1.0) <= PURE_TOL:
                    problems.append(f"{where}: purity {purity!r} of a pure state")
    _check_manifest(tree, failed, problems)
    return len(failed), problems


def check_ensemble(cfg: RunConfig, tree: dict) -> tuple[int, list[str]]:
    """(failed realisations, problems) of one ensemble sweep."""
    problems: list[str] = []
    failed: list[str] = []
    cat = catalog()
    for state_id in cfg.states:
        target = sum(cat[state_id].ells_a)
        purity_at = {}
        for omega in cfg.omegas:
            where = f"{state_id} omega={omega}"
            done, bad = _members(cfg, tree, state_id, omega, problems)
            failed += bad
            ens = tree["ensembles"].get((state_id, omega))
            if ens is None:
                problems.append(f"{where}: no ensemble.json")
                continue
            if ens["n"] != len(done):
                problems.append(f"{where}: n={ens['n']}, {len(done)} realisations done")
            members = [_matrix(d["density"]) for d in done]
            avg = _matrix(ens["density"])
            if members:
                gap = float(np.max(np.abs(avg - np.mean(members, axis=0))))
                if not gap <= MEAN_TOL:
                    problems.append(f"{where}: ensemble density off the mean by {gap:.3g}")
                mean_purity = float(np.mean([_purity(m) for m in members]))
                if not _purity(avg) <= mean_purity + MEAN_TOL:
                    problems.append(
                        f"{where}: purity {_purity(avg)!r} of the mean exceeds "
                        f"the members' mean purity {mean_purity!r}"
                    )
            number = ens["skyrmion"]["number"]
            if number is None or not abs(number - target) <= WRAP_TOL:
                problems.append(f"{where}: wrapping {number} vs target {target}")
            purity_at[omega] = _purity(avg)
        lo, hi = min(cfg.omegas), max(cfg.omegas)
        if lo in purity_at and hi in purity_at and not purity_at[hi] < purity_at[lo]:
            problems.append(
                f"{state_id}: purity {purity_at[hi]:.4f} at omega={hi} is not "
                f"below {purity_at[lo]:.4f} at omega={lo}"
            )
    _check_manifest(tree, failed, problems)
    return len(failed), problems


@dataclass(frozen=True)
class CalibrationInputs:
    omegas: tuple[float, ...]
    n_screens: int
    seed: int


def _falls(values, errors, label: str, omegas, problems: list[str]) -> None:
    """Strictly lower at the strongest strength than at the weakest, and
    no neighbour rises by more than TREND_Z combined standard errors."""
    if not values[-1] < values[0]:
        problems.append(
            f"{label} {values[-1]:.4f} at omega={omegas[-1]} is not below "
            f"{values[0]:.4f} at omega={omegas[0]}"
        )
    for i in range(len(values) - 1):
        rise = values[i + 1] - values[i]
        if rise > TREND_Z * np.hypot(errors[i], errors[i + 1]):
            problems.append(
                f"{label} rises by {rise:.4f} from omega={omegas[i]} "
                f"to omega={omegas[i + 1]}"
            )


def check_calibration(inputs: CalibrationInputs, result: dict) -> tuple[int, list[str]]:
    """(failed screens, problems) of one calibration."""
    problems: list[str] = []
    root_n = np.sqrt(inputs.n_screens)
    power, power_err = [], []
    for omega in inputs.omegas:
        rows = [r for r in result["spectra"] if r[0] == omega]
        if len(rows) != 2 * result["window"] + 1:
            problems.append(f"omega={omega}: {len(rows)} spectrum rows")
        total = sum(r[2] for r in rows)
        if not total <= 1.0 + POWER_TOL:
            problems.append(f"omega={omega}: windowed spectrum sums to {total!r}")
        power.append(total)
        # the spread of a sum is at most the sum of the spreads
        power_err.append(sum(r[3] for r in rows) / root_n)
    survival, survival_err = [], []
    for omega in inputs.omegas:
        rows = [r for r in result["survival"] if r[0] == omega]
        if len(rows) != 1:
            problems.append(f"omega={omega}: {len(rows)} survival rows")
            continue
        _, mean, std, analytic = rows[0]
        if analytic != survival_probability_analytic(omega):
            problems.append(f"omega={omega}: analytic survival {analytic} misreported")
        if not abs(mean - analytic) <= SURVIVAL_PULL_MAX * std:
            problems.append(
                f"omega={omega}: survival {mean:.4f} is more than "
                f"{SURVIVAL_PULL_MAX} spreads ({std:.4f}) from {analytic:.4f}"
            )
        survival.append(mean)
        survival_err.append(std / root_n)
    if len(survival) == len(inputs.omegas):
        _falls(survival, survival_err, "survival", inputs.omegas, problems)
    _falls(power, power_err, "window power", inputs.omegas, problems)
    return 0, problems


@dataclass(frozen=True)
class Workload:
    """One workload: how to make a round's inputs, run it and check it."""

    name: str
    inputs: Callable[[int, int], object]
    items: Callable[[object], int]
    run: Callable[[object, Path], object]
    read: Callable[[object], object]
    check: Callable[[object, object], tuple[int, list[str]]]
    warm_up: Callable[[Path], None]


def _realisations(cfg: RunConfig) -> int:
    return len(cfg.states) * len(cfg.omegas) * cfg.realisations


def _screens(inputs: CalibrationInputs) -> int:
    return len(inputs.omegas) * inputs.n_screens


def _static_inputs(seed: int, round_idx: int) -> RunConfig:
    return RunConfig(
        states=("0_1", "0_m1_phase"),
        omegas=STATIC_OMEGAS,
        realisations=1,
        grid_n=512,
        master_seed=master_seed(seed, round_idx),
    )


def _ensemble_inputs(seed: int, round_idx: int) -> RunConfig:
    return RunConfig(
        states=("0_1", "0_m1"),
        omegas=ENSEMBLE_OMEGAS,
        realisations=ENSEMBLE_REALISATIONS,
        grid_n=256,
        master_seed=master_seed(seed, round_idx),
        mode="ensemble",
        count_model=CountModel(),
    )


def _calibration_inputs(seed: int, round_idx: int) -> CalibrationInputs:
    return CalibrationInputs(CALIBRATION_OMEGAS, CALIBRATION_SCREENS, master_seed(seed, round_idx))


def _calibrate(inputs: CalibrationInputs, root: Path) -> dict:
    return run_calibration(
        inputs.omegas, n_screens=inputs.n_screens, seed=inputs.seed, grid_n=256
    )


# The warm-up runs the workload's entry point once on the smallest grid
# the modes resolve, so every lazy import (scipy.optimize on the first
# counts reconstruction and the first classical correlation) and every
# cache (the screen cell weights) is filled before the first timed round.
_WARM_GRID = 128


def _warm_sweep(mode: str, count_model):
    entry = run_ensemble if mode == "ensemble" else run_static

    def warm_up(root: Path) -> None:
        entry(
            RunConfig(
                states=("0_1",), omegas=(0.5,), realisations=1, grid_n=_WARM_GRID,
                mode=mode, count_model=count_model,
            ),
            root,
        )

    return warm_up


def _warm_calibration(root: Path) -> None:
    run_calibration((0.5,), n_screens=2, grid_n=_WARM_GRID)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "static_n512", _static_inputs, _realisations, run_static, load_tree,
            check_static, _warm_sweep("static", None),
        ),
        Workload(
            "ensemble_counts_n256", _ensemble_inputs, _realisations, run_ensemble,
            load_tree, check_ensemble, _warm_sweep("ensemble", CountModel()),
        ),
        Workload(
            "calibration_n256", _calibration_inputs, _screens, _calibrate,
            lambda result: result, check_calibration, _warm_calibration,
        ),
    )
}
