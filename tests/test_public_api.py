"""Exported names and the bindings the benchmark's tracer wraps resolve.

A rename that leaves a stale ``__all__`` entry, or that moves a function
``perfbench/tracer.py`` patches at run time, fails here instead of at
import time for users or mid-run under ``--trace 1``.  The command-line
entry point must also stay free of test-only weight: no scipy, no
reference-solution module.  And every function or class a module exports,
and every public method of a class the package defines, must be reached
from somewhere in the package: a public name that only its definition and
the export lists mention is dead weight.  Likewise every field of a
dataclass the package defines must be read somewhere in the package or
its tests.
"""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import carbon_fbsde

MODULES = sorted(m.name for m in pkgutil.iter_modules(carbon_fbsde.__path__))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SRC = str(Path(carbon_fbsde.__file__).resolve().parents[1])


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


def test_cli_import_loads_no_scipy_and_ships_no_oracle():
    probe = ("import importlib.util, sys\n"
             "import carbon_fbsde.cli\n"
             "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
             "assert importlib.util.find_spec('carbon_fbsde.oracle') is None\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr


def _exported_definitions(tree):
    """Names a module's ``__all__`` lists that it defines as a function or class."""
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported |= {elt.value for elt in node.value.elts}
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in exported}


def _package_trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(Path(carbon_fbsde.__file__).parent.glob("*.py"))}


def _references(trees):
    """Names read and attributes looked up anywhere in ``trees``; ``__all__``
    strings and ``from ... import`` aliases are the export lists, not uses."""
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_exported_definition_is_reached_in_the_package():
    trees = _package_trees()
    used = _references(trees)
    unreached = sorted(f"{module}.{name}" for module, tree in trees.items()
                       for name in _exported_definitions(tree) - used)
    assert not unreached, f"exported but never reached in the package: {unreached}"


def _public_methods(tree):
    """``(class, method)`` for each method of the tree's classes whose name
    has no leading underscore, properties included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not stmt.name.startswith("_")):
                    yield node.name, stmt.name


def test_every_public_method_is_reached_in_the_package():
    """A method is reached when the package looks up an attribute of its
    name; a method only tests call belongs in the tests."""
    trees = _package_trees()
    used = _references(trees)
    unreached = sorted(f"{module}.{cls}.{name}" for module, tree in trees.items()
                       for cls, name in _public_methods(tree) if name not in used)
    assert not unreached, f"public methods never reached in the package: {unreached}"


def _dataclass_fields(tree):
    """``(class, field)`` for each annotated field of the tree's dataclasses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                isinstance(dec, ast.Name) and dec.id == "dataclass"
                for dec in (getattr(d, "func", d) for d in node.decorator_list)):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id


def _attribute_reads(tree):
    """Attribute names the tree loads, copies apart.

    ``name=obj.name``, a read passed straight on as the keyword of the same
    name, only carries a field from one object to the next; it is not a use.
    """
    copies = {id(kw.value) for kw in ast.walk(tree) if isinstance(kw, ast.keyword)
              and isinstance(kw.value, ast.Attribute) and kw.value.attr == kw.arg}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and id(node) not in copies}


def test_every_dataclass_field_is_read():
    package = Path(carbon_fbsde.__file__).parent
    sources = sorted(package.glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for path in sources + sorted(Path(__file__).parent.glob("*.py"))}
    read = set().union(*map(_attribute_reads, trees.values()))
    unread = sorted(f"{path.stem}.{cls}.{name}" for path in sources
                    for cls, name in _dataclass_fields(trees[path]) if name not in read)
    assert not unread, f"dataclass fields nothing reads: {unread}"
