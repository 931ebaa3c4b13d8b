"""The benchmark's traced runs patch layer functions by name; they must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.WRAPPED


@pytest.mark.parametrize(
    "module_name, attr", [(m, a) for m, a, _ in _wrapped()], ids=lambda v: v
)
def test_wrapped_attribute_exists(module_name, attr):
    assert hasattr(importlib.import_module(module_name), attr)
