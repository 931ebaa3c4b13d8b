"""Command-line front end.

Subcommands mirror the library layers: screen generation, calibration,
full sweeps, single-state topology and witness queries, and a text
report over a finished result tree.

Exit codes: 0 on success, 1 for usage errors (bad or missing flags),
2 for runtime failures (missing files, unresolvable configurations).
The SKYSIM_SEED environment variable overrides whichever seed a
subcommand would otherwise use, which lets wrappers rerun a pinned
configuration without editing configs; main parses it once for every
subcommand that takes a seed.

Heavy imports happen inside the handlers so that --threads can cap the
linear-algebra thread pools before the numeric stack loads.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

_ENV_SEED = "SKYSIM_SEED"


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="skysim",
        description="OAM biphoton turbulence simulator",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=None,
        help="cap BLAS/FFT thread pools (set before numeric imports)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    screens = sub.add_parser("screens", help="generate and store phase screens")
    screens.add_argument("--omega", type=float, required=True,
                         help="turbulence strength")
    screens.add_argument("--ell", type=int, default=0,
                         help="mode index setting the beam scale")
    screens.add_argument("--w0", type=float, default=None,
                         help="beam waist in metres")
    screens.add_argument("--n", type=int, default=256, help="grid side length")
    screens.add_argument("--extent-factor", type=float, default=16.0,
                         help="grid extent in waist units")
    screens.add_argument("--n-screens", type=int, default=1)
    screens.add_argument("--n-subharmonics", type=int, default=5)
    screens.add_argument("--seed", type=int, default=0)
    screens.add_argument("--out", required=True, help="output directory")
    screens.set_defaults(func=_cmd_screens)

    calibrate = sub.add_parser(
        "calibrate", help="fundamental-mode crosstalk spectra and survival"
    )
    calibrate.add_argument("--omegas", default="0.5,1.0,1.5,2.0",
                           help="comma-separated strengths")
    calibrate.add_argument("--n-screens", type=int, default=100)
    calibrate.add_argument("--grid-n", type=int, default=256)
    calibrate.add_argument("--extent-factor", type=float, default=16.0)
    calibrate.add_argument("--w0", type=float, default=None)
    calibrate.add_argument("--window", type=int, default=10)
    calibrate.add_argument("--n-subharmonics", type=int, default=5)
    calibrate.add_argument("--seed", type=int, default=0)
    calibrate.add_argument("--out", required=True, help="output directory")
    calibrate.add_argument("--format", choices=("csv", "json"), default="csv")
    calibrate.set_defaults(func=_cmd_calibrate)

    runp = sub.add_parser("run", help="execute a sweep from a config file")
    runp.add_argument("--config", required=True, help="RunConfig JSON path")
    runp.add_argument("--out", required=True, help="results root directory")
    runp.set_defaults(func=_cmd_run, seed=None)

    topology = sub.add_parser(
        "topology", help="skyrmion number of a catalog or stored state"
    )
    topology.add_argument("--state", required=True, help="catalog state id")
    topology.add_argument("--density", default=None,
                          help="density-matrix JSON (default: ideal state)")
    topology.add_argument("--format", choices=("csv", "json"), default="csv")
    topology.add_argument("--out", default=None, help="write instead of stdout")
    topology.set_defaults(func=_cmd_topology)

    witness = sub.add_parser(
        "witness", help="entanglement witnesses of a stored state"
    )
    witness.add_argument("--density", required=True,
                         help="density-matrix JSON path")
    witness.add_argument("--state", required=True,
                         help="catalog id of the target state")
    witness.add_argument("--format", choices=("csv", "json"), default="csv")
    witness.add_argument("--out", default=None, help="write instead of stdout")
    witness.set_defaults(func=_cmd_witness)

    report = sub.add_parser("report", help="text tables over a result tree")
    report.add_argument("--results", required=True,
                        help="run directory or calibration output directory")
    report.add_argument("--out", default=None, help="write instead of stdout")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(args.threads)
    if _ENV_SEED in os.environ and hasattr(args, "seed"):
        try:
            args.seed = int(os.environ[_ENV_SEED])
        except ValueError:
            print(
                f"skysim: {_ENV_SEED} must be an integer, "
                f"got {os.environ[_ENV_SEED]!r}",
                file=sys.stderr,
            )
            return 2
    try:
        return args.func(args, parser)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"skysim: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def _default_w0(value):
    if value is not None:
        return value
    from skysim.experiments import DEFAULT_WAIST

    return DEFAULT_WAIST


def _check_screen_flags(args, parser) -> None:
    from skysim.turbulence import _check_levels

    if args.n_screens < 1:
        parser.error(f"--n-screens: need at least 1 screen, got {args.n_screens}")
    try:
        _check_levels(args.n_subharmonics)
    except ValueError as exc:
        parser.error(f"--n-subharmonics: {exc}")


def _cmd_screens(args, parser) -> int:
    from skysim.experiments import _draw_screen
    from skysim.modes import make_grid
    from skysim.turbulence import omega_to_fried, write_screen

    _check_screen_flags(args, parser)
    w0 = _default_w0(args.w0)
    grid = make_grid(args.n, args.extent_factor * w0)
    r0 = omega_to_fried(args.omega, args.ell, w0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for k in range(args.n_screens):
        screen = _draw_screen(args.seed, 0, k, r0, grid, args.n_subharmonics)
        write_screen(screen, out / f"screen-{k:04d}.skyp")
    print(f"wrote {args.n_screens} screens to {out}")
    return 0


_CALIBRATION_COLUMNS = {
    "spectra": ["omega", "ell_out", "mean_power", "std_power"],
    "survival": ["omega", "survival_mean", "survival_std", "survival_analytic"],
}


def write_calibration_tables(out_dir, result: dict, fmt: str = "csv") -> list[Path]:
    """Persist a calibration result exactly as the CLI does."""
    from skysim.experiments import _write_csv

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "json":
        path = out / "calibration.json"
        path.write_text(json.dumps(result, sort_keys=True, indent=2) + "\n")
        return [path]
    paths = []
    for name, header in _CALIBRATION_COLUMNS.items():
        paths.append(out / f"{name}.csv")
        _write_csv(paths[-1], header, result[name])
    return paths


def _parse_omegas(text: str, parser):
    try:
        omegas = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        parser.error(f"--omegas: expected comma-separated numbers, got {text!r}")
    if not omegas:
        parser.error("--omegas: no values given")
    return omegas


def _cmd_calibrate(args, parser) -> int:
    from skysim.experiments import run_calibration

    omegas = _parse_omegas(args.omegas, parser)
    _check_screen_flags(args, parser)
    if args.window < 0:
        parser.error(f"--window: must be >= 0, got {args.window}")
    result = run_calibration(
        omegas,
        n_screens=args.n_screens,
        seed=args.seed,
        grid_n=args.grid_n,
        extent_factor=args.extent_factor,
        w0=_default_w0(args.w0),
        window=args.window,
        n_subharmonics=args.n_subharmonics,
    )
    paths = write_calibration_tables(args.out, result, args.format)
    for p in paths:
        print(f"wrote {p}")
    return 0


def _cmd_run(args, parser) -> int:
    from dataclasses import replace

    from skysim.experiments import config_from_json, run

    config_path = Path(args.config)
    if not config_path.exists():
        raise FileNotFoundError(f"config file {config_path} does not exist")
    config = config_from_json(json.loads(config_path.read_text()))
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    run_dir = run(config, args.out)
    print(f"results in {run_dir}")
    return 0


def _load_catalog_state(state_id: str, parser):
    from skysim.states import catalog

    cat = catalog()
    if state_id not in cat:
        parser.error(
            f"--state: unknown state id {state_id!r} "
            f"(choose from {', '.join(cat)})"
        )
    return cat[state_id]


def _emit(doc: dict, fmt: str, out_path) -> None:
    if fmt == "json":
        text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    else:
        lines = ["metric,value"]
        for key, value in doc.items():
            lines.append(f"{key},{value}")
        text = "\n".join(lines) + "\n"
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _load_density(density_path):
    """Accept a bare density document or any run artifact nesting one."""
    from skysim.states import density_from_json

    path = Path(density_path)
    if not path.exists():
        raise FileNotFoundError(f"density file {path} does not exist")
    doc = json.loads(path.read_text())
    if "matrix" not in doc and "density" in doc:
        doc = doc["density"]
    return density_from_json(doc)


def _cmd_topology(args, parser) -> int:
    from skysim.states import DensityMatrix4
    from skysim.topology import skyrmion_number

    state = _load_catalog_state(args.state, parser)
    if args.density is not None:
        rho = _load_density(args.density)
    else:
        rho = DensityMatrix4.from_pure(state)
    number, details = skyrmion_number(rho, state, return_details=True)
    doc = {
        "state": args.state,
        "number": number,
        "estimator": details["estimator"],
        "det": details["det"],
        "margin": details["margin"],
    }
    _emit(doc, args.format, args.out)
    return 0


def _cmd_witness(args, parser) -> int:
    from dataclasses import asdict

    from skysim.states import DensityMatrix4
    from skysim.witnesses import discord, evaluate_witnesses

    state = _load_catalog_state(args.state, parser)
    rho = _load_density(args.density)
    target = DensityMatrix4.from_pure(state)
    report = evaluate_witnesses(rho, target, discord_reference=discord(target))
    doc = {"state": args.state, **asdict(report)}
    del doc["diagnostics"]
    _emit(doc, args.format, args.out)
    return 0


_GAP = "-"


def _format_table(title: str, header: list[str], rows: list[list[str]]) -> str:
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title]
    lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _column_table(
    title: str, header: list[str], rows: list[dict], fields: list[str]
) -> str:
    """The given fields of CSV rows as a table; an empty field is a gap."""
    return _format_table(title, header, [[r[f] or _GAP for f in fields] for r in rows])


def _read_csv(path: Path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _summary_tables(run_dir: Path) -> list[str]:
    rows = _read_csv(run_dir / "summary.csv")
    return [
        _column_table(
            title, ["state", "omega", "n", "mean", "std"], rows,
            ["state", "omega", "n_ok", f"{col}_mean", f"{col}_std"],
        )
        for title, col in (
            ("skyrmion number vs strength", "skyrmion"),
            ("purity vs strength", "purity"),
            ("discord vs strength", "discord"),
        )
    ]


def _contrast_table(run_dir: Path) -> str | None:
    """Quantum contrast per strength, from stored counts records."""
    import numpy as np

    from skysim.states import record_from_json

    groups: dict[tuple[str, str], list[float]] = {}
    for path in sorted(run_dir.glob("*/omega-*/realisation-*.json")):
        doc = json.loads(path.read_text())
        if doc.get("record", {}).get("kind") != "counts":
            continue
        record = record_from_json(doc["record"])
        cm = record.count_model
        if cm.accidental_rate <= 0:
            continue
        peak_rate = record.values.max() / cm.integration
        key = (doc["state"], f"{doc['omega']:.2f}")
        groups.setdefault(key, []).append(peak_rate / cm.accidental_rate)
    if not groups:
        return None
    body = []
    for (state, omega), vals in sorted(groups.items()):
        arr = np.array(vals)
        std = f"{arr.std(ddof=1):.6g}" if arr.size > 1 else _GAP
        body.append([state, omega, str(arr.size), f"{arr.mean():.6g}", std])
    return _format_table(
        "quantum contrast vs strength",
        ["state", "omega", "n", "mean", "std"],
        body,
    )


def _calibration_tables(results_dir: Path) -> list[str]:
    """Tables of calibration.json, its numbers formatted as the CSV files
    hold them, or else of the CSV files present."""
    from skysim.experiments import _fmt

    path = results_dir / "calibration.json"
    doc = json.loads(path.read_text()) if path.exists() else None
    calibration = {}
    for name, header in _CALIBRATION_COLUMNS.items():
        if doc is not None:
            calibration[name] = [dict(zip(header, map(_fmt, row))) for row in doc[name]]
        elif (results_dir / f"{name}.csv").exists():
            calibration[name] = _read_csv(results_dir / f"{name}.csv")
    tables = []
    if "survival" in calibration:
        tables.append(
            _column_table(
                "fundamental-mode survival vs strength",
                ["omega", "simulated", "std", "analytic"],
                calibration["survival"],
                _CALIBRATION_COLUMNS["survival"],
            )
        )
    if "spectra" in calibration:
        display = [str(ell) for ell in range(-5, 6)]
        by_omega: dict[str, dict[str, str]] = {}
        for r in calibration["spectra"]:
            by_omega.setdefault(r["omega"], {})[r["ell_out"]] = f"{float(r['mean_power']):.4f}"
        body = [
            [omega] + [cells.get(ell, _GAP) for ell in display]
            for omega, cells in sorted(by_omega.items(), key=lambda kv: float(kv[0]))
        ]
        tables.append(
            _format_table(
                "output mode spectrum (mean power)",
                ["omega"] + display,
                body,
            )
        )
    return tables


def _cmd_report(args, parser) -> int:
    results_dir = Path(args.results)
    if not results_dir.is_dir():
        raise FileNotFoundError(f"results directory {results_dir} does not exist")
    tables: list[str] = []
    if (results_dir / "summary.csv").exists():
        tables.extend(_summary_tables(results_dir))
        contrast = _contrast_table(results_dir)
        if contrast:
            tables.append(contrast)
    tables.extend(_calibration_tables(results_dir))
    if not tables:
        raise FileNotFoundError(
            f"no summary.csv or calibration tables under {results_dir}"
        )
    text = "\n".join(tables)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
