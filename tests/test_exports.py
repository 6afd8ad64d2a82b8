"""Every public name a module exports, or the benchmark's tracer patches,
still exists, and each public name has one import path: its module."""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import orelearn

_ROOT = Path(__file__).resolve().parent.parent
_MODULES = ["orelearn"] + [f"orelearn.{m.name}" for m in pkgutil.iter_modules(orelearn.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_all_names_resolve_and_star_import_succeeds(name):
    module = importlib.import_module(name)
    stale = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert stale == [], f"{name}.__all__ names missing attributes: {stale}"
    exec(f"from {name} import *", {})


@pytest.mark.parametrize("name", _MODULES)
def test_all_lists_exactly_the_public_names_the_module_defines(name):
    # a top-level def, class or assignment without a leading underscore is
    # public; __all__ lists each of them and nothing imported from elsewhere
    module = importlib.import_module(name)
    defined = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(t.id for t in targets if isinstance(t, ast.Name))
    public = {n for n in defined if not n.startswith("_")}
    assert sorted(getattr(module, "__all__", ())) == sorted(public)


def test_importing_the_package_loads_no_submodule():
    # the package root holds only __version__; each name is imported from its module
    done = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, orelearn; "
            "print(sorted(m for m in sys.modules if m.startswith('orelearn.')), 'numpy' in sys.modules)",
        ],
        env={**os.environ, "PYTHONPATH": str(_ROOT / "src")},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[] False"


def test_benchmark_tracer_installs():
    # the tracer looks up every traced layer by name, so a renamed or deleted
    # one breaks ``perfbench/run.py --trace 1``, which this suite does not run
    path = os.pathsep.join(str(_ROOT / d) for d in ("src", "perfbench"))
    done = subprocess.run(
        [sys.executable, "-c", "from tracer import Tracer; Tracer().install()"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr


def test_importing_the_cli_loads_no_numpy_random():
    # a module-level binding of np.random.Generator would pull numpy.random and
    # its submodules into every CLI start; annotations stay unevaluated strings
    path = str(_ROOT / "src")
    done = subprocess.run(
        [sys.executable, "-c", "import sys, orelearn.cli; print('numpy.random' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
