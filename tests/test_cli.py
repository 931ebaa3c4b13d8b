"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import skysim
from skysim.channel import CountModel
from skysim.cli import main, write_calibration_tables
from skysim.experiments import RunConfig, run_ensemble

W0 = 0.9375e-3


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_missing_required_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["screens", "--out", "/tmp/nowhere"])
        assert err.value.code == 1

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 1

    def test_bad_format_choice_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["calibrate", "--out", "/tmp/x", "--format", "yaml"])
        assert err.value.code == 1

    def test_unknown_state_names_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["topology", "--state", "9_9"])
        assert err.value.code == 1
        assert "--state" in capsys.readouterr().err

    def test_bad_omegas_names_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["calibrate", "--omegas", "a,b", "--out", "/tmp/x"])
        assert err.value.code == 1
        assert "--omegas" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["screens", "calibrate"])
    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--n-screens", "0"),
            ("--n-screens", "-1"),
            ("--n-subharmonics", "-1"),
            ("--n-subharmonics", "9"),
        ],
    )
    def test_out_of_range_screen_flag_names_flag(
        self, command, flag, value, tmp_path, capsys
    ):
        argv = [command, flag, value, "--out", str(tmp_path / "out")]
        if command == "screens":
            argv += ["--omega", "1.0", "--n", "16"]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 1
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_window_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main(["calibrate", "--window", "-1", "--out", str(tmp_path / "out")])
        assert err.value.code == 1
        assert "--window" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, value", [("--window", "30"), ("--grid-n", "16")])
    def test_unresolvable_calibration_fails_before_any_screen(
        self, flag, value, monkeypatch, tmp_path, capsys
    ):
        import skysim.experiments

        drawn = []
        monkeypatch.setattr(skysim.experiments, "generate_screen", drawn.append)
        argv = ["calibrate", "--omegas", "0.5", "--n-screens", "1", "--grid-n",
                "128", flag, value, "--out", str(tmp_path / "out")]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert "SamplingError" in err
        assert drawn == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--w0", "--extent-factor"])
    def test_infinite_length_fails_before_any_screen(
        self, flag, monkeypatch, tmp_path, capsys
    ):
        # --w0 inf used to fail inside the first screen, in kolmogorov_psd
        import skysim.experiments

        drawn = []
        monkeypatch.setattr(skysim.experiments, "generate_screen", drawn.append)
        argv = ["calibrate", "--omegas", "0.5", "--n-screens", "1", "--grid-n",
                "128", flag, "inf", "--out", str(tmp_path / "out")]
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert "pixel pitch must be finite" in err
        assert drawn == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [("window", 10), ("use_tomography", True)])
    def test_config_with_removed_key_is_runtime_error(
        self, key, value, tmp_path, capsys
    ):
        # config.json files written before these fields were removed
        config = {"states": ["0_1"], "omegas": [0.5], "realisations": 1,
                  "grid_n": 128, key: value}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli(
            ["run", "--config", str(path), "--out", str(tmp_path / "res")], capsys
        )
        assert code == 2
        assert "TypeError" in err and key in err
        assert not (tmp_path / "res").exists()

    def test_missing_config_is_runtime_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["run", "--config", str(tmp_path / "no.json"), "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "no.json" in err

    def test_missing_density_is_runtime_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["witness", "--density", str(tmp_path / "rho.json"), "--state", "0_1"],
            capsys,
        )
        assert code == 2
        assert "rho.json" in err

    @pytest.mark.parametrize("command", ["screens", "run"])
    def test_bad_env_seed_is_runtime_error(
        self, command, monkeypatch, tmp_path, capsys
    ):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"states": ["0_1"], "omegas": [0.5],
                                      "realisations": 1, "grid_n": 128}))
        argv = {
            "screens": ["screens", "--omega", "1.0"],
            "run": ["run", "--config", str(config)],
        }[command]
        monkeypatch.setenv("SKYSIM_SEED", "not-a-number")
        code, _, err = run_cli([*argv, "--out", str(tmp_path / "out")], capsys)
        assert code == 2
        assert "SKYSIM_SEED must be an integer" in err
        assert not (tmp_path / "out").exists()


class TestScreens:
    def test_writes_requested_screens(self, tmp_path, capsys):
        out = tmp_path / "screens"
        code, stdout, _ = run_cli(
            [
                "screens", "--omega", "1.0", "--n", "64", "--n-screens", "2",
                "--seed", "5", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        assert "2 screens" in stdout
        assert sorted(p.name for p in out.iterdir()) == [
            "screen-0000.skyp",
            "screen-0001.skyp",
        ]

    def test_matches_library_output_byte_for_byte(self, tmp_path, capsys):
        from skysim.experiments import derive_seed
        from skysim.modes import make_grid
        from skysim.turbulence import (
            TurbulenceSpec,
            generate_screen,
            omega_to_fried,
            write_screen,
        )

        cli_dir = tmp_path / "cli"
        code, _, _ = run_cli(
            [
                "screens", "--omega", "0.8", "--n", "64", "--n-screens", "2",
                "--seed", "9", "--out", str(cli_dir),
            ],
            capsys,
        )
        assert code == 0
        api_dir = tmp_path / "api"
        api_dir.mkdir()
        grid = make_grid(64, 16 * W0)
        r0 = omega_to_fried(0.8, 0, W0)
        for k in range(2):
            spec = TurbulenceSpec(r0=r0, grid=grid, seed=derive_seed(9, 0, 0, k))
            write_screen(generate_screen(spec), api_dir / f"screen-{k:04d}.skyp")
        for k in range(2):
            name = f"screen-{k:04d}.skyp"
            assert (cli_dir / name).read_bytes() == (api_dir / name).read_bytes()

    def test_files_hold_the_screens_a_sweep_draws(self, tmp_path, capsys):
        # screen k of the first strength of a sweep with master seed s is
        # screen k of `skysim screens --seed s`
        from skysim.experiments import run_static
        from skysim.states import screen_digest
        from skysim.turbulence import read_screen

        out = tmp_path / "screens"
        code, _, _ = run_cli(
            ["screens", "--omega", "0.7", "--n", "128", "--n-screens", "2",
             "--seed", "23", "--out", str(out)],
            capsys,
        )
        assert code == 0
        config = RunConfig(
            states=("0_1",), omegas=(0.7, 1.2), realisations=2, grid_n=128,
            master_seed=23,
        )
        run_dir = run_static(config, tmp_path / "run")
        for k in range(2):
            doc = json.loads(
                (run_dir / "0_1" / "omega-0.70" / f"realisation-{k}.json").read_text()
            )
            screen = read_screen(out / f"screen-{k:04d}.skyp")
            assert screen_digest(screen) == doc["record"]["provenance"]["screen_hash"]

    def test_env_seed_override(self, tmp_path, monkeypatch, capsys):
        first = tmp_path / "a"
        run_cli(
            ["screens", "--omega", "1.0", "--n", "64", "--seed", "1",
             "--out", str(first)],
            capsys,
        )
        monkeypatch.setenv("SKYSIM_SEED", "1")
        second = tmp_path / "b"
        run_cli(
            ["screens", "--omega", "1.0", "--n", "64", "--seed", "777",
             "--out", str(second)],
            capsys,
        )
        assert (first / "screen-0000.skyp").read_bytes() == (
            second / "screen-0000.skyp"
        ).read_bytes()


class TestCalibrate:
    def test_csv_matches_library_byte_for_byte(self, tmp_path, capsys):
        from skysim.experiments import run_calibration

        cli_dir = tmp_path / "cli"
        code, _, _ = run_cli(
            [
                "calibrate", "--omegas", "0.5", "--n-screens", "2",
                "--grid-n", "128", "--seed", "4", "--out", str(cli_dir),
            ],
            capsys,
        )
        assert code == 0
        result = run_calibration((0.5,), n_screens=2, seed=4, grid_n=128)
        api_dir = tmp_path / "api"
        write_calibration_tables(api_dir, result, "csv")
        for name in ("spectra.csv", "survival.csv"):
            assert (cli_dir / name).read_bytes() == (api_dir / name).read_bytes()

    def test_json_format(self, tmp_path, capsys):
        code, _, _ = run_cli(
            [
                "calibrate", "--omegas", "0.0", "--n-screens", "1",
                "--grid-n", "128", "--out", str(tmp_path), "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads((tmp_path / "calibration.json").read_text())
        assert doc["window"] == 10
        assert doc["survival"][0][1] == pytest.approx(1.0)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A one-realisation sweep driven through the CLI."""
    root = tmp_path_factory.mktemp("cli-run")
    config = {
        "states": ["0_1"],
        "omegas": [0.5],
        "realisations": 1,
        "grid_n": 128,
        "master_seed": 13,
    }
    config_path = root / "config.json"
    config_path.write_text(json.dumps(config))
    code = main(["run", "--config", str(config_path), "--out", str(root / "results")])
    assert code == 0
    run_dirs = list((root / "results").iterdir())
    assert len(run_dirs) == 1
    return run_dirs[0]


class TestRun:
    def test_tree_produced(self, small_run, capsys):
        capsys.readouterr()
        assert (small_run / "manifest.json").exists()
        assert (small_run / "0_1" / "omega-0.50" / "realisation-0.json").exists()

    def test_env_seed_changes_run_identity(self, tmp_path, monkeypatch, capsys):
        from skysim.experiments import RunConfig, config_hash

        config = {
            "states": ["0_1"], "omegas": [0.5], "realisations": 1,
            "grid_n": 128, "master_seed": 13,
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        monkeypatch.setenv("SKYSIM_SEED", "77")
        code, stdout, _ = run_cli(
            ["run", "--config", str(path), "--out", str(tmp_path / "res")], capsys
        )
        assert code == 0
        expected = config_hash(
            RunConfig(
                states=("0_1",), omegas=(0.5,), realisations=1, grid_n=128,
                master_seed=77,
            )
        )[:12]
        assert (tmp_path / "res" / expected).is_dir()
        assert expected in stdout


class TestTopologyCommand:
    def test_ideal_state_csv(self, capsys):
        code, stdout, _ = run_cli(
            ["topology", "--state", "0_1"], capsys
        )
        assert code == 0
        rows = dict(
            line.split(",", 1) for line in stdout.strip().splitlines()[1:]
        )
        assert float(rows["number"]) == pytest.approx(1.0, abs=0.05)
        assert rows["estimator"] == "ellipsoid"

    def test_stored_density_json_output(self, tmp_path, capsys):
        from skysim.states import DensityMatrix4, density_to_json, make_state

        rho = DensityMatrix4.from_pure(make_state(0, 2))
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(density_to_json(rho)))
        out = tmp_path / "topo.json"
        code, _, _ = run_cli(
            [
                "topology", "--state", "0_2", "--density", str(path),
                "--format", "json", "--out", str(out),
            ],
            capsys,
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["number"] == pytest.approx(2.0, abs=0.05)


class TestWitnessCommand:
    def test_bell_witnesses(self, tmp_path, capsys):
        from skysim.states import DensityMatrix4, density_to_json, make_state

        rho = DensityMatrix4.from_pure(make_state(0, 1))
        path = tmp_path / "rho.json"
        path.write_text(json.dumps(density_to_json(rho)))
        code, stdout, _ = run_cli(
            ["witness", "--density", str(path), "--state", "0_1"], capsys
        )
        assert code == 0
        rows = dict(
            line.split(",", 1) for line in stdout.strip().splitlines()[1:]
        )
        assert list(rows) == [
            "state", "concurrence", "fidelity", "purity", "mutual_information",
            "classical_correlation", "discord", "discord_normalized",
        ]
        assert float(rows["concurrence"]) == pytest.approx(1.0, abs=1e-6)
        assert float(rows["fidelity"]) == pytest.approx(1.0, abs=1e-6)
        assert float(rows["discord_normalized"]) == pytest.approx(1.0, abs=1e-3)

    def test_accepts_run_artifact_with_nested_density(self, small_run, capsys):
        # realisation files nest the matrix under "density"; pointing the
        # command straight at one should work without a jq extraction step
        artifact = small_run / "0_1" / "omega-0.50" / "realisation-0.json"
        code, stdout, _ = run_cli(
            ["witness", "--density", str(artifact), "--state", "0_1"], capsys
        )
        assert code == 0
        rows = dict(
            line.split(",", 1) for line in stdout.strip().splitlines()[1:]
        )
        # a static realisation stays pure but drifts from the ideal target
        assert float(rows["purity"]) == pytest.approx(1.0, abs=1e-6)
        assert 0.5 < float(rows["fidelity"]) < 1.0


class TestReport:
    def test_run_report_tables_and_gap_markers(self, small_run, capsys):
        code, stdout, _ = run_cli(["report", "--results", str(small_run)], capsys)
        assert code == 0
        assert "skyrmion number vs strength" in stdout
        assert "purity vs strength" in stdout
        assert "discord vs strength" in stdout
        sky_line = next(
            line
            for line in stdout.splitlines()
            if line.startswith("0_1") and "0.5" in line
        )
        assert sky_line.rstrip().endswith("-")

    def test_contrast_table_from_counts_records(self, tmp_path, capsys):
        config = RunConfig(
            states=("0_1",), omegas=(0.5,), realisations=2, grid_n=128,
            mode="ensemble", count_model=CountModel(), master_seed=4,
        )
        run_dir = run_ensemble(config, tmp_path)
        code, stdout, _ = run_cli(["report", "--results", str(run_dir)], capsys)
        assert code == 0
        contrasts = []
        for path in sorted(run_dir.glob("0_1/omega-0.50/realisation-*.json")):
            record = json.loads(path.read_text())["record"]
            cm = record["count_model"]
            peak = max(v for _, _, v in record["entries"]) / cm["integration"]
            contrasts.append(
                peak / (cm["gate"] * cm["singles_rate_a"] * cm["singles_rate_b"])
            )
        assert len(contrasts) == 2
        # the contrast table is the last one a run tree's report prints
        lines = stdout.splitlines()
        rows = lines[lines.index("quantum contrast vs strength") + 2:]
        assert len(rows) == 1
        state, omega, n, mean, std = rows[0].split()
        assert (state, omega, n) == ("0_1", "0.50", "2")
        assert float(mean) == pytest.approx(np.mean(contrasts), rel=1e-5)
        assert float(std) == pytest.approx(np.std(contrasts, ddof=1), rel=1e-5)

    def test_probability_tree_has_no_contrast_table(self, small_run, capsys):
        code, stdout, _ = run_cli(["report", "--results", str(small_run)], capsys)
        assert code == 0
        assert "quantum contrast" not in stdout

    def test_calibration_report(self, tmp_path, capsys):
        run_cli(
            [
                "calibrate", "--omegas", "0.5", "--n-screens", "2",
                "--grid-n", "128", "--out", str(tmp_path),
            ],
            capsys,
        )
        code, stdout, _ = run_cli(["report", "--results", str(tmp_path)], capsys)
        assert code == 0
        assert "fundamental-mode survival vs strength" in stdout
        assert "output mode spectrum" in stdout

    def test_json_calibration_reports_as_csv(self, tmp_path, capsys):
        reports = []
        for fmt in ("csv", "json"):
            out = tmp_path / fmt
            argv = [
                "calibrate", "--omegas", "0.0,0.5", "--n-screens", "2",
                "--grid-n", "128", "--seed", "9", "--format", fmt, "--out", str(out),
            ]
            assert run_cli(argv, capsys)[0] == 0
            code, stdout, _ = run_cli(["report", "--results", str(out)], capsys)
            assert code == 0
            reports.append(stdout)
        assert "fundamental-mode survival vs strength" in reports[1]
        assert reports[1] == reports[0]

    def test_empty_directory_is_runtime_error(self, tmp_path, capsys):
        code, _, err = run_cli(["report", "--results", str(tmp_path)], capsys)
        assert code == 2
        assert str(tmp_path) in err

    def test_missing_directory_is_runtime_error(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        code, _, err = run_cli(["report", "--results", str(missing)], capsys)
        assert code == 2
        assert "nope" in err

    def test_report_to_file(self, small_run, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code, stdout, _ = run_cli(
            ["report", "--results", str(small_run), "--out", str(out)], capsys
        )
        assert code == 0
        assert stdout == ""
        assert "skyrmion number" in out.read_text()


def run_module(*argv):
    """Run `python -m skysim.cli` on the package the suite imported."""
    env = dict(os.environ, PYTHONPATH=str(Path(skysim.__file__).resolve().parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "skysim.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


class TestEntryPoint:
    def test_module_invocation_help(self):
        proc = run_module("--help")
        assert proc.returncode == 0
        assert "screens" in proc.stdout
        assert "calibrate" in proc.stdout
        assert "report" in proc.stdout

    def test_module_invocation_usage_error_code(self):
        proc = run_module("screens")
        assert proc.returncode == 1
        assert "--out" in proc.stderr
