"""Tests for sweep orchestration, result trees, and reproducibility."""

import csv
import hashlib
import json
from dataclasses import fields, replace
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from skysim.channel import CountModel
from skysim.experiments import (
    RunConfig,
    config_from_json,
    config_hash,
    config_to_json,
    derive_seed,
    run,
    run_calibration,
    run_ensemble,
    run_static,
)
from skysim.states import catalog
from skysim.topology import DegenerateFieldError
from skysim.turbulence import PhaseScreen
from skysim.witnesses import WitnessReport
import skysim.experiments as experiments

SMALL = RunConfig(
    states=("0_1",),
    omegas=(0.0, 1.0),
    realisations=2,
    grid_n=128,
    master_seed=11,
)


class TestRunConfig:
    def test_defaults_cover_strength_ladder(self):
        cfg = RunConfig()
        assert cfg.omegas == (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
        assert cfg.mode == "static"

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError, match="unknown state"):
            RunConfig(states=("5_7",))

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            RunConfig(mode="averaged")

    @pytest.mark.parametrize("omega", [-0.5, float("nan"), float("inf"), True, "0.5"])
    def test_negative_strength_rejected(self, omega):
        # nan and inf used to be written into config.json as NaN and
        # Infinity, then fail every realisation. True was held as True;
        # a string raised a TypeError that named no field.
        with pytest.raises(ValueError, match=">= 0"):
            RunConfig(omegas=(omega,))
        # config_from_json turned a JSON true into 1.0 and "0.5" into 0.5
        doc = {"states": ["0_1"], "omegas": [omega], "realisations": 1, "grid_n": 128}
        with pytest.raises(ValueError, match="turbulence strength must be finite"):
            config_from_json(doc)

    @pytest.mark.parametrize("omegas", [(0.251, 0.254), (1.0, 1.0), (0.5, 1, 1.0)])
    def test_strengths_sharing_a_directory_rejected(self, omegas):
        # (0.251, 0.254) would both write omega-0.25/, the second
        # overwriting the first's realisation files.
        with pytest.raises(ValueError, match="share an output directory"):
            RunConfig(states=("0_1",), omegas=omegas, realisations=1, grid_n=128)

    def test_duplicate_states_rejected(self):
        with pytest.raises(ValueError, match="duplicate state"):
            RunConfig(states=("0_1", "0_2", "0_1"))

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"grid_n": 15}, "grid size"),
            ({"w0": -1.0}, "w0"),
            # a negative waist and extent factor give a positive extent
            ({"w0": -1.0, "extent_factor": -16.0}, "w0"),
            ({"extent_factor": 0.0}, "extent_factor"),
            ({"n_subharmonics": 9}, "n_subharmonics"),
            ({"n_subharmonics": -1}, "n_subharmonics"),
            # 0_1's arm-B modes span fewer than 8 pixels at the default extent
            ({"grid_n": 64}, "below 8 pixels"),
            ({"states": ("0_1", "0_3"), "grid_n": 128, "extent_factor": 5.0},
             "beyond a third"),
            ({"states": ()}, "at least one state"),
            ({"omegas": ()}, "at least one strength"),
            # 2.5 left an empty strength directory without a manifest;
            # 1.5 made every realisation a "seed must be integer" error
            ({"realisations": 2.5}, "realisations must be an integer >= 1"),
            ({"master_seed": 1.5}, "non-negative integer"),
            # these four made every realisation an error document
            ({"grid_n": 128.0}, "grid size"),
            ({"n_subharmonics": 2.5}, "n_subharmonics"),
            ({"w0": float("inf")}, "w0"),
            ({"extent_factor": float("inf")}, "extent_factor"),
            # this one raised ZeroDivisionError
            ({"grid_n": 0}, "grid size"),
            # True passed as 1, hashing to another directory than 1 does
            ({"master_seed": True}, "master seed"),
            ({"realisations": True}, "realisations"),
            ({"n_subharmonics": True}, "n_subharmonics"),
            # True swept a 1 m waist or a 1-waist extent; a string raised a
            # TypeError that named no field
            ({"w0": True}, "w0 must be finite"),
            ({"w0": "1e-3"}, "w0 must be finite"),
            ({"w0": float("nan")}, "w0 must be finite"),
            ({"extent_factor": True}, "extent_factor must be finite"),
            ({"extent_factor": "16"}, "extent_factor must be finite"),
            ({"extent_factor": float("nan")}, "extent_factor must be finite"),
            ({"extent_factor": -16.0}, "extent_factor must be finite"),
        ],
    )
    def test_config_that_cannot_run_rejected(self, fields, match):
        # Each of these used to leave a config.json, or a tree of error
        # artifacts, behind.
        with pytest.raises(ValueError, match=match):
            RunConfig(**fields)

    @pytest.mark.parametrize(
        "fields",
        [{"pair_rate": float("nan")}, {"integration": float("nan")},
         {"singles_rate_a": float("inf")},
         # True was written as true, hashing apart from 1.0; a string
         # raised a TypeError that named no field
         {"integration": True}, {"pair_rate": "4000"}],
    )
    def test_non_finite_count_model_writes_nothing(self, fields, tmp_path):
        # a NaN pair rate used to be written into config.json as NaN and
        # fail every realisation
        with pytest.raises(ValueError, match="finite"):
            run(RunConfig(states=("0_1",), omegas=(0.5,), realisations=1, grid_n=128,
                          count_model=CountModel(**fields)), tmp_path)
        doc = config_to_json(SMALL) | {"count_model": fields}
        with pytest.raises(ValueError, match="finite"):
            config_from_json(doc)
        assert list(tmp_path.iterdir()) == []

    def test_json_round_trip_with_count_model(self):
        cfg = RunConfig(count_model=CountModel(pair_rate=1e4), master_seed=3)
        back = config_from_json(config_to_json(cfg))
        assert back == cfg

    def test_json_without_a_field_takes_its_default(self):
        # a document without "omegas" raised KeyError: 'omegas'
        doc = {"states": ["0_1"], "realisations": 1, "grid_n": 128}
        back = config_from_json(doc)
        assert back == RunConfig(**doc)
        assert back.omegas == RunConfig().omegas
        assert config_hash(back) == config_hash(RunConfig(**doc))

    def test_hash_stable_and_sensitive(self):
        assert config_hash(SMALL) == config_hash(RunConfig(**config_to_json(SMALL) | {}))
        changed = RunConfig(
            states=("0_1",), omegas=(0.0, 1.0), realisations=2, grid_n=128,
            master_seed=12,
        )
        assert config_hash(changed) != config_hash(SMALL)

    @pytest.mark.parametrize(
        "numpy_fields, plain_fields",
        [
            ({"realisations": np.int64(1)}, {"realisations": 1}),
            ({"grid_n": np.int64(128)}, {"grid_n": 128}),
            ({"master_seed": np.int64(11)}, {"master_seed": 11}),
            ({"n_subharmonics": np.int64(3)}, {"n_subharmonics": 3}),
            ({"count_model": CountModel(pair_rate=np.int64(4000))},
             {"count_model": CountModel(pair_rate=4000)}),
            # an array's truth value raised; a list, or an array kept as
            # given, left the config unhashable; a generator was used up
            # by the checks
            ({"omegas": np.array([0.5])}, {"omegas": (0.5,)}),
            ({"omegas": np.array([0.5, 1.0])}, {"omegas": (0.5, 1.0)}),
            ({"states": ["0_1"]}, {"states": ("0_1",)}),
            ({"omegas": (omega for omega in (0.5,))}, {"omegas": (0.5,)}),
            # an int real was written as an int, so these int/float twins
            # hashed to two directories
            ({"w0": 1}, {"w0": 1.0}),
            ({"extent_factor": 16}, {"extent_factor": 16.0}),
            ({"count_model": CountModel(pair_rate=50)},
             {"count_model": CountModel(pair_rate=50.0)}),
        ],
    )
    def test_numpy_integers_hash_like_plain_numbers(
        self, numpy_fields, plain_fields, tmp_path
    ):
        # numpy integers pass the integer checks; config_hash and run used
        # to raise "Object of type int64 is not JSON serializable"
        base = replace(SMALL, omegas=(0.5,), realisations=1)
        config = replace(base, **numpy_fields)
        twin = replace(base, **plain_fields)
        assert config == twin and hash(config) == hash(twin)
        assert config_hash(config) == config_hash(twin)
        run_dir = run(config, tmp_path / "numpy")
        twin_dir = run(twin, tmp_path / "plain")
        assert run_dir.name == twin_dir.name
        for name in ("config.json", "manifest.json"):
            assert (run_dir / name).read_bytes() == (twin_dir / name).read_bytes()


class TestSeeds:
    def test_deterministic(self):
        assert derive_seed(5, 1, 2, 3) == derive_seed(5, 1, 2, 3)

    def test_distinct_across_coordinates_and_streams(self):
        seeds = {
            derive_seed(5, a, b, c, stream=s)
            for a in range(3)
            for b in range(3)
            for c in range(3)
            for s in range(2)
        }
        assert len(seeds) == 54


def assert_witness_block_is_a_report(block):
    # the six witnesses as numbers, and nothing beside them
    assert list(block) == sorted(f.name for f in fields(WitnessReport))
    assert all(isinstance(value, float) for value in block.values())


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return run_static(SMALL, tmp_path_factory.mktemp("results"))


class TestStaticRun:
    def test_tree_layout(self, run_dir):
        assert (run_dir / "config.json").exists()
        assert (run_dir / "witnesses.csv").exists()
        assert (run_dir / "summary.csv").exists()
        assert (run_dir / "manifest.json").exists()
        for omega in ("omega-0.00", "omega-1.00"):
            for k in range(2):
                assert (run_dir / "0_1" / omega / f"realisation-{k}.json").exists()
        assert not (run_dir / "coverage").exists()

    def test_quiet_channel_realisation_content(self, run_dir):
        doc = json.loads(
            (run_dir / "0_1" / "omega-0.00" / "realisation-0.json").read_text()
        )
        assert doc["record"]["provenance"]["state_id"] == "0_1"
        assert doc["witnesses"]["concurrence"] == pytest.approx(1.0, abs=1e-6)
        assert doc["skyrmion"]["number"] == pytest.approx(1.0, abs=0.05)
        assert doc["renormalization"] == pytest.approx(1.0, rel=1e-9)

    def test_witness_table_rows(self, run_dir):
        with open(run_dir / "witnesses.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {r["omega"] for r in rows} == {"0", "1"}
        quiet = [r for r in rows if r["omega"] == "0"]
        for r in quiet:
            assert float(r["fidelity"]) == pytest.approx(1.0, abs=1e-6)

    def test_table_headers_follow_the_report(self, run_dir):
        columns = [f.name for f in fields(WitnessReport)] + ["skyrmion"]
        with open(run_dir / "witnesses.csv") as fh:
            assert next(csv.reader(fh)) == ["state", "omega", "realisation", *columns]
        with open(run_dir / "summary.csv") as fh:
            header = next(csv.reader(fh))
        assert header[:3] == ["state", "omega", "n_ok"]
        assert header[3:] == [f"{c}_{s}" for c in columns for s in ("mean", "std")]

    def test_witness_block_is_the_report(self, run_dir):
        doc = json.loads(
            (run_dir / "0_1" / "omega-1.00" / "realisation-1.json").read_text()
        )
        assert_witness_block_is_a_report(doc["witnesses"])

    def test_summary_aggregates(self, run_dir):
        with open(run_dir / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(r["n_ok"] == "2" for r in rows)
        quiet = rows[0]
        assert float(quiet["skyrmion_mean"]) == pytest.approx(1.0, abs=0.05)
        assert quiet["skyrmion_std"] != ""

    def test_manifest_covers_all_artifacts(self, run_dir):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(SMALL)
        assert manifest["incomplete"] == []
        files = {
            str(p.relative_to(run_dir))
            for p in run_dir.rglob("*")
            if p.is_file() and p.name != "manifest.json"
        }
        assert set(manifest["artifacts"]) == files
        probe = "witnesses.csv"
        digest = hashlib.sha256((run_dir / probe).read_bytes()).hexdigest()
        assert manifest["artifacts"][probe] == digest

    def test_bit_identical_rerun(self, run_dir, tmp_path):
        again = run_static(SMALL, tmp_path)
        first = (run_dir / "manifest.json").read_bytes()
        second = (again / "manifest.json").read_bytes()
        assert first == second


class TestFailureCapture:
    def test_strength_without_members_leaves_error_average(self, tmp_path):
        # every realisation at omega 40 fails; its average used to leave no
        # ensemble.json and no manifest entry
        cfg = RunConfig(
            states=("0_1",), omegas=(0.5, 40.0), realisations=2, grid_n=128,
            mode="ensemble",
        )
        run_dir = run_ensemble(cfg, tmp_path)
        doc = json.loads(
            (run_dir / "0_1" / "omega-40.00" / "ensemble.json").read_text()
        )
        assert doc == {
            "state": "0_1", "omega": 40.0, "n": 0, "seeds": [],
            "error": "ValueError: cannot average an empty ensemble", "incomplete": True,
        }
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert "0_1/omega-40.00/ensemble.json" in manifest["artifacts"]
        assert manifest["incomplete"] == [
            "0_1/omega-40.00/0", "0_1/omega-40.00/1", "0_1/omega-40.00/ensemble",
        ]
        with open(run_dir / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["omega"], r["n_ok"]) for r in rows] == [("0.5", "1"), ("40", "0")]

    def test_unresolvable_screen_becomes_artifact(self, tmp_path):
        cfg = RunConfig(
            states=("0_1",), omegas=(20.0,), realisations=1, grid_n=128,
        )
        run_dir = run_static(cfg, tmp_path)
        doc = json.loads(
            (run_dir / "0_1" / "omega-20.00" / "realisation-0.json").read_text()
        )
        assert doc["incomplete"] is True
        assert "SamplingError" in doc["error"]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["incomplete"] == ["0_1/omega-20.00/0"]
        with open(run_dir / "summary.csv") as fh:
            row = next(csv.DictReader(fh))
        assert row["n_ok"] == "0"
        assert row["skyrmion_mean"] == ""

    def test_unresolvable_shared_screen_fails_every_state(self, tmp_path):
        cfg = RunConfig(
            states=("0_1", "0_m2"), omegas=(0.5, 20.0), realisations=1, grid_n=128,
        )
        run_dir = run_static(cfg, tmp_path)
        for state_id in cfg.states:
            doc = json.loads(
                (run_dir / state_id / "omega-20.00" / "realisation-0.json").read_text()
            )
            assert doc["incomplete"] is True
            assert "SamplingError" in doc["error"]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["incomplete"] == ["0_1/omega-20.00/0", "0_m2/omega-20.00/0"]
        with open(run_dir / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["state"], r["omega"], r["n_ok"]) for r in rows] == [
            ("0_1", "0.5", "1"), ("0_1", "20", "0"),
            ("0_m2", "0.5", "1"), ("0_m2", "20", "0"),
        ]

    def test_degenerate_wrapping_number_keeps_witnesses(self, tmp_path, monkeypatch):
        def degenerate(*args, **kwargs):
            raise DegenerateFieldError("injected")

        monkeypatch.setattr(experiments, "skyrmion_number", degenerate)
        cfg = RunConfig(
            states=("0_1",), omegas=(0.5,), realisations=2, grid_n=128,
            master_seed=13,
        )
        run_dir = run_static(cfg, tmp_path)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["incomplete"] == []
        doc = json.loads(
            (run_dir / "0_1" / "omega-0.50" / "realisation-0.json").read_text()
        )
        assert doc["skyrmion"] == {"number": None, "error": "injected"}
        assert "concurrence" in doc["witnesses"]
        with open(run_dir / "witnesses.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["realisation"] for r in rows] == ["0", "1"]
        assert all(r["skyrmion"] == "" and r["concurrence"] != "" for r in rows)
        with open(run_dir / "summary.csv") as fh:
            row = next(csv.DictReader(fh))
        assert row["n_ok"] == "2"
        assert row["skyrmion_mean"] == ""
        assert row["concurrence_mean"] != ""


    @pytest.mark.parametrize("mode", ["static", "ensemble"])
    def test_failed_evaluation_becomes_artifact(self, mode, tmp_path, monkeypatch):
        # The second evaluation is 0_m2's realisation in a static run and
        # 0_m2's average in an ensemble run; a failed average used to abort
        # the run before its tables and manifest.
        key = "0" if mode == "static" else "ensemble"
        name = "realisation-0.json" if mode == "static" else "ensemble.json"
        original = experiments.evaluate_witnesses
        calls = []

        def second_call_fails(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise RuntimeError("injected")
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "evaluate_witnesses", second_call_fails)
        cfg = RunConfig(
            states=("0_1", "0_m2"), omegas=(0.5,), realisations=1, grid_n=128,
            mode=mode,
        )
        run_dir = run(cfg, tmp_path)
        doc = json.loads((run_dir / "0_m2" / "omega-0.50" / name).read_text())
        assert doc["incomplete"] is True
        assert doc["error"] == "RuntimeError: injected"
        assert "record" not in doc and "density" not in doc
        if mode == "ensemble":
            member = json.loads(
                (run_dir / "0_m2" / "omega-0.50" / "realisation-0.json").read_text()
            )
            assert doc["n"] == 1
            assert doc["seeds"] == [member["record"]["provenance"]["seed"]]
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["incomplete"] == [f"0_m2/omega-0.50/{key}"]
        with open(run_dir / "witnesses.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["state"] for r in rows] == ["0_1"]
        with open(run_dir / "summary.csv") as fh:
            summary = list(csv.DictReader(fh))
        assert [(r["state"], r["n_ok"]) for r in summary] == [("0_1", "1"), ("0_m2", "0")]


class TestEnsembleRun:
    def test_single_realisation_matches_static(self, tmp_path):
        cfg_s = RunConfig(
            states=("0_1",), omegas=(1.0,), realisations=1, grid_n=128,
            master_seed=21,
        )
        cfg_e = RunConfig(
            states=("0_1",), omegas=(1.0,), realisations=1, grid_n=128,
            master_seed=21, mode="ensemble",
        )
        static_dir = run_static(cfg_s, tmp_path / "s")
        ens_dir = run_ensemble(cfg_e, tmp_path / "e")
        st = json.loads(
            (static_dir / "0_1" / "omega-1.00" / "realisation-0.json").read_text()
        )
        en = json.loads((ens_dir / "0_1" / "omega-1.00" / "ensemble.json").read_text())
        assert en["n"] == 1
        assert en["skyrmion"]["number"] == st["skyrmion"]["number"]
        assert en["witnesses"]["discord"] == st["witnesses"]["discord"]
        assert en["density"] == st["density"]

    def test_average_written_with_purity(self, tmp_path):
        cfg = RunConfig(
            states=("0_1",), omegas=(1.0,), realisations=3, grid_n=128,
            master_seed=31, mode="ensemble",
        )
        run_dir = run(cfg, tmp_path)
        doc = json.loads((run_dir / "0_1" / "omega-1.00" / "ensemble.json").read_text())
        assert doc["n"] == 3
        assert len(doc["seeds"]) == 3
        assert 0.25 <= doc["purity"] <= 1.0
        back = np.array(
            [[complex(re, im) for re, im in row] for row in doc["density"]["matrix"]]
        )
        assert np.trace(back).real == pytest.approx(1.0, abs=1e-9)

    def test_witness_block_is_the_report(self, tmp_path):
        cfg = replace(SMALL, omegas=(1.0,), realisations=1, mode="ensemble")
        run_dir = run_ensemble(cfg, tmp_path)
        doc = json.loads((run_dir / "0_1" / "omega-1.00" / "ensemble.json").read_text())
        assert_witness_block_is_a_report(doc["witnesses"])

    def test_member_whose_wrapping_number_would_fail_stays_in_average(self, tmp_path):
        # Members are never evaluated, so a wrapping number that cannot be
        # computed for one realisation no longer drops it from the average.
        cfg = RunConfig(
            states=("2_3",), omegas=(1.0,), realisations=8, grid_n=128,
            mode="ensemble",
        )
        run_dir = run_ensemble(cfg, tmp_path)
        doc = json.loads((run_dir / "2_3" / "omega-1.00" / "ensemble.json").read_text())
        assert doc["n"] == 8
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["incomplete"] == []

    def test_only_the_average_is_evaluated(self, tmp_path, monkeypatch):
        calls = {"evaluate_witnesses": 0, "skyrmion_number": 0}
        for name in calls:
            original = getattr(experiments, name)

            def counted(*args, _name=name, _fn=original, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(experiments, name, counted)
        states, omegas, realisations = ("0_1", "0_m1"), (0.25, 0.5), 3
        cfg = RunConfig(
            states=states, omegas=omegas, realisations=realisations,
            grid_n=128, master_seed=41,
        )
        run_ensemble(replace(cfg, mode="ensemble"), tmp_path / "e")
        pairs = len(states) * len(omegas)
        assert calls == {"evaluate_witnesses": pairs, "skyrmion_number": pairs}
        run_static(cfg, tmp_path / "s")
        per_static = pairs * realisations
        assert calls == {
            "evaluate_witnesses": pairs + per_static,
            "skyrmion_number": pairs + per_static,
        }


class TestModeFromConfig:
    @pytest.mark.parametrize(
        "entry, mode", [(run_static, "ensemble"), (run_ensemble, "static")]
    )
    def test_entry_point_refuses_the_other_mode(self, entry, mode, tmp_path):
        with pytest.raises(ValueError, match="takes a config of mode"):
            entry(replace(SMALL, mode=mode), tmp_path / "results")
        assert not (tmp_path / "results").exists()


class TestSharedScreens:
    CONFIG = RunConfig(
        states=("0_1", "2_3"), omegas=(0.25, 0.5, 0.75), realisations=2,
        grid_n=128, master_seed=51,
    )

    def test_one_screen_per_strength_and_realisation(self, tmp_path, monkeypatch):
        seeds = []
        original = experiments.generate_screen

        def counted(spec):
            seeds.append(spec.seed)
            return original(spec)

        monkeypatch.setattr(experiments, "generate_screen", counted)
        run_static(self.CONFIG, tmp_path)
        assert seeds == [
            derive_seed(51, 0, i, k) for i in range(3) for k in range(2)
        ]

    @pytest.mark.parametrize("mode", ["static", "ensemble"])
    def test_states_share_each_screen(self, tmp_path, mode):
        cfg = replace(self.CONFIG, mode=mode)
        run_dir = run(cfg, tmp_path)
        for omega_idx, omega in enumerate(cfg.omegas):
            for k in range(cfg.realisations):
                provenance = [
                    json.loads(
                        (run_dir / s / f"omega-{omega:.2f}" / f"realisation-{k}.json")
                        .read_text()
                    )["record"]["provenance"]
                    for s in cfg.states
                ]
                assert provenance[0]["screen_hash"] == provenance[1]["screen_hash"]
                assert {p["seed"] for p in provenance} == {
                    derive_seed(51, 0, omega_idx, k)
                }

    @pytest.mark.parametrize("mode", ["static", "ensemble"])
    def test_trig_and_digest_once_per_screen(self, tmp_path, monkeypatch, mode):
        # both states read the cos/sin table and the digest of each screen
        uses = {name: [] for name in ("trig", "digest")}
        for name, calls in uses.items():
            compute = vars(PhaseScreen)[name].func

            def counted(screen, compute=compute, calls=calls):
                calls.append(screen.spec.seed)
                return compute(screen)

            held = cached_property(counted)
            held.__set_name__(PhaseScreen, name)
            monkeypatch.setattr(PhaseScreen, name, held)
        run(replace(self.CONFIG, mode=mode), tmp_path)
        seeds = [derive_seed(51, 0, i, k) for i in range(3) for k in range(2)]
        assert uses == {"trig": seeds, "digest": seeds}

    def test_table_rows_by_state_then_strength(self, tmp_path):
        run_dir = run_static(self.CONFIG, tmp_path)
        with open(run_dir / "witnesses.csv") as fh:
            rows = [(r["state"], r["omega"], r["realisation"]) for r in csv.DictReader(fh)]
        assert rows == [
            (s, f"{o:g}", str(k))
            for s in self.CONFIG.states
            for o in self.CONFIG.omegas
            for k in range(2)
        ]
        with open(run_dir / "summary.csv") as fh:
            rows = [(r["state"], r["omega"]) for r in csv.DictReader(fh)]
        assert rows == [(s, f"{o:g}") for s in self.CONFIG.states for o in self.CONFIG.omegas]

    def test_first_state_of_a_sweep_sees_its_single_state_screens(self, tmp_path):
        alone = replace(self.CONFIG, states=("0_1",))
        pair_dir = run_static(self.CONFIG, tmp_path / "pair")
        alone_dir = run_static(alone, tmp_path / "alone")
        for path in sorted((alone_dir / "0_1").rglob("*.json")):
            twin = pair_dir / path.relative_to(alone_dir)
            assert twin.read_bytes() == path.read_bytes()


def _static_numbers(run_dir):
    with open(run_dir / "witnesses.csv") as fh:
        return [(r["state"], float(r["skyrmion"])) for r in csv.DictReader(fh)]


class TestPastFailures:
    """Configurations on which the former lattice estimator failed.

    A pure state sent through an invertible partner-arm channel keeps
    its wrapping number exactly: its steering ellipsoid is the Bloch
    sphere under a Moebius map, which preserves orientation.
    """

    @pytest.mark.parametrize(
        "config",
        [
            RunConfig(
                states=("0_1", "0_m1_phase"), omegas=(0.5, 1.0, 1.5, 2.0),
                realisations=1, grid_n=512, master_seed=seed,
            )
            for seed in (101001, 104001)
        ]
        + [
            RunConfig(
                states=("0_1", "0_m3"), omegas=(0.5, 1.0, 1.5, 2.0),
                realisations=3, grid_n=512, master_seed=0,
            )
        ],
        ids=["seed-101001", "seed-104001", "0_m3"],
    )
    def test_static_512_hits_every_target(self, config, tmp_path):
        run_dir = run_static(config, tmp_path)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["incomplete"] == []
        numbers = _static_numbers(run_dir)
        assert len(numbers) == len(config.states) * len(config.omegas) * (
            config.realisations
        )
        cat = catalog()
        for state_id, number in numbers:
            assert number == sum(cat[state_id].ells_a), state_id

    def test_static_imbalanced_state_128(self, tmp_path):
        cfg = RunConfig(states=("2_3",), omegas=(1.0,), realisations=8, grid_n=128)
        run_dir = run_static(cfg, tmp_path)
        assert _static_numbers(run_dir) == [("2_3", 5.0)] * 8

    def test_ensemble_orientation_flip_is_an_outcome(self, tmp_path):
        cfg = RunConfig(
            states=("0_1", "0_m2"), omegas=(0.5, 1.0, 1.5, 2.0), realisations=3,
            grid_n=256, mode="ensemble", count_model=CountModel(), master_seed=4,
        )
        run_dir = run_ensemble(cfg, tmp_path)
        cat = catalog()
        flipped = set()
        for state_id in cfg.states:
            target = sum(cat[state_id].ells_a)
            for omega in cfg.omegas:
                doc = json.loads(
                    (run_dir / state_id / f"omega-{omega:.2f}" / "ensemble.json")
                    .read_text()
                )
                sky = doc["skyrmion"]
                # an averaged channel that reverses the ellipsoid (det > 0)
                # flips the number, and nothing else does
                if sky["det"] > 0:
                    assert sky["number"] == -target, (state_id, omega)
                    flipped.add((state_id, omega))
                else:
                    assert sky["number"] == target, (state_id, omega)
        assert flipped == {("0_1", 2.0), ("0_m2", 1.0)}


class TestCalibration:
    def test_rows_and_quiet_limit(self):
        out = run_calibration(
            (0.0, 1.0), n_screens=3, seed=50000, grid_n=128, window=10
        )
        assert len(out["spectra"]) == 2 * 21
        assert len(out["survival"]) == 2
        quiet = out["survival"][0]
        assert quiet[1] == pytest.approx(1.0, abs=1e-9)
        assert quiet[3] == pytest.approx(1.0, abs=1e-12)
        turbulent = out["survival"][1]
        assert 0.0 < turbulent[1] < 1.0

    def test_spectrum_normalised_within_window(self):
        out = run_calibration((0.5,), n_screens=2, seed=50001, grid_n=128)
        total = sum(row[2] for row in out["spectra"])
        assert 0.9 <= total <= 1.0 + 1e-6

    @pytest.mark.parametrize("n_screens", [0, -1])
    def test_no_screens_rejected(self, n_screens):
        with pytest.raises(ValueError, match="n_screens must be an integer >= 1"):
            run_calibration((0.5,), n_screens=n_screens, grid_n=64)

    def test_non_finite_strength_rejected_before_any_screen(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(
            experiments, "generate_screen", lambda spec: drawn.append(spec)
        )
        with pytest.raises(ValueError, match=">= 0"):
            run_calibration((0.5, float("nan")), n_screens=1, grid_n=128)
        assert drawn == []

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"grid_n": 128.0}, "grid size"),
            ({"w0": float("inf")}, "waist w0 must be finite"),
            ({"extent_factor": float("inf")}, "extent_factor must be finite"),
            ({"n_subharmonics": 2.5}, "n_subharmonics"),
            # these two failed with a TypeError
            ({"n_screens": 2.5}, "n_screens must be an integer >= 1"),
            ({"window": 2.5}, "window must be a non-negative integer"),
            # this one returned empty tables
            ({"omegas": ()}, "at least one strength"),
            # these two failed inside numpy at the first screen
            ({"seed": 1.5}, "master seed must be a non-negative integer"),
            ({"seed": -1}, "master seed must be a non-negative integer"),
            # this one raised ZeroDivisionError
            ({"grid_n": 0}, "grid size"),
            # True was taken as 1: the window was written as true, and the
            # screen count failed inside numpy with a TypeError
            ({"window": True}, "window must be a non-negative integer"),
            ({"n_screens": True}, "n_screens must be an integer >= 1"),
            # True ran at omega = 1 with the strength written as true, or
            # with a 1 m waist; a string raised a TypeError
            ({"omegas": (True,)}, "turbulence strength must be finite"),
            ({"omegas": ("0.5",)}, "turbulence strength must be finite"),
            ({"omegas": (float("nan"),)}, "turbulence strength must be finite"),
            ({"omegas": (-0.5,)}, "turbulence strength must be finite"),
            ({"w0": True}, "waist w0 must be finite"),
            # True failed only as a SamplingError that named no field, and
            # a string raised a TypeError; NaN and a negative factor were
            # refused as a pixel pitch
            ({"extent_factor": True}, "extent_factor must be finite"),
            ({"extent_factor": "16"}, "extent_factor must be finite"),
            ({"extent_factor": float("nan")}, "extent_factor must be finite"),
            ({"extent_factor": -16.0}, "extent_factor must be finite"),
        ],
    )
    def test_grid_and_levels_refused_before_any_screen(
        self, fields, match, monkeypatch
    ):
        # each used to fail only inside the first screen
        drawn = []
        monkeypatch.setattr(
            experiments, "generate_screen", lambda spec: drawn.append(spec)
        )
        args = {"omegas": (0.5,), "n_screens": 1, "grid_n": 128} | fields
        with pytest.raises(ValueError, match=match):
            run_calibration(**args)
        assert drawn == []

    def test_strengths_taken_once(self):
        # a generator of strengths used to be spent before the loop
        args = {"n_screens": 1, "seed": 50003, "grid_n": 128, "window": 0}
        out = run_calibration((o for o in (0.5, 1.0)), **args)
        assert out == run_calibration((0.5, 1.0), **args)
        assert [row[0] for row in out["survival"]] == [0.5, 1.0]

    @pytest.mark.parametrize(
        "numpy_args, plain_args",
        [
            ({"window": np.int64(2)}, {"window": 2}),
            ({"omegas": np.array([0, 1])}, {"omegas": (0, 1)}),
        ],
    )
    def test_numpy_integers_written_like_plain_numbers(self, numpy_args, plain_args):
        # a numpy window came back as numpy.int64, which the JSON writer of
        # skysim calibrate --format json refused
        args = {"omegas": (0.5,), "n_screens": 1, "seed": 50004, "grid_n": 128,
                "window": 1}
        out = run_calibration(**args | numpy_args)
        assert json.dumps(out) == json.dumps(run_calibration(**args | plain_args))

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError, match="window"):
            run_calibration((0.5,), n_screens=1, grid_n=64, window=-1)

    def test_zero_window_is_the_survival_alone(self):
        out = run_calibration((0.5,), n_screens=1, seed=50002, grid_n=128, window=0)
        assert [row[1] for row in out["spectra"]] == [0]
        assert out["spectra"][0][2] == out["survival"][0][1]
