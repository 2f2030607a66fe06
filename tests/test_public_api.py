"""Exported names and the bindings the benchmark's tracer wraps resolve.

A rename that leaves a stale ``__all__`` entry, or that moves a function
``perfbench/tracer.py`` patches at run time, fails here instead of at
import time for users or mid-run under ``--trace 1``.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import carbon_fbsde

MODULES = sorted(m.name for m in pkgutil.iter_modules(carbon_fbsde.__path__))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_package_all_resolves():
    missing = [n for n in carbon_fbsde.__all__ if not hasattr(carbon_fbsde, n)]
    assert not missing, f"carbon_fbsde.__all__ names missing: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"carbon_fbsde.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"carbon_fbsde.{name}.__all__ names missing: {missing}"


@pytest.mark.skipif(not TRACER.exists(), reason="benchmark tracer not present")
def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer._targets()
    assert targets
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in targets if not callable(getattr(owner, attr, None))]
    assert not missing, f"traced bindings missing: {missing}"
