"""The package's public names: every exported name exists and has one home."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import skysim

MODULES = [
    "skysim.modes",
    "skysim.turbulence",
    "skysim.channel",
    "skysim.states",
    "skysim.witnesses",
    "skysim.topology",
    "skysim.experiments",
]


def run_python(code, *argv):
    """Run `code` in a fresh interpreter on the package the suite imported."""
    src = str(Path(skysim.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_root_defines_only_version():
    public = [
        name
        for name, value in vars(skysim).items()
        if not name.startswith("__") and not isinstance(value, types.ModuleType)
    ]
    assert public == []
    assert isinstance(skysim.__version__, str)


def test_cli_import_leaves_numpy_unloaded():
    # --threads sets the thread variables in main(); they cap the pools
    # only if numpy has not loaded by then
    code = "import sys\nimport skysim.cli\nprint('numpy' in sys.modules)\n"
    assert run_python(code) == "False"


def test_sweeps_load_no_scipy(tmp_path):
    code = (
        "import sys\n"
        "from skysim.channel import CountModel\n"
        "from skysim.experiments import RunConfig, run_ensemble, run_static\n"
        "common = dict(states=('0_1',), omegas=(0.5,), realisations=2, grid_n=128)\n"
        "run_static(RunConfig(**common), sys.argv[1])\n"
        "run_ensemble(RunConfig(**common, mode='ensemble', "
        "count_model=CountModel()), sys.argv[1])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert run_python(code, str(tmp_path)) == "[]"
