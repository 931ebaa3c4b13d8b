"""The package's public names: every exported name exists and has one home."""

import importlib
import types

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


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_top_level_names_come_from_module_exports():
    exported = {}
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name in module.__all__:
            exported[name] = getattr(module, name)
    public = [
        name
        for name, value in vars(skysim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert public
    strays = [name for name in public if name not in exported]
    assert strays == []
    assert all(getattr(skysim, name) is exported[name] for name in public)
