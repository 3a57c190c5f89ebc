"""The installed package's entry points, read from pyproject.toml.

The suite runs the package from `src/` without installing it, so nothing
else would notice a console script or a version attribute that
pyproject.toml names and the package no longer has."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oce_rcps

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


@pytest.fixture(scope="module")
def pyproject():
    with open(ROOT / "pyproject.toml", "rb") as fp:
        return tomllib.load(fp)


def resolve(reference: str):
    """The object a "module:attr" or "module.attr" reference names."""
    module, sep, attr = reference.partition(":")
    if not sep:
        module, _, attr = reference.rpartition(".")
    obj = importlib.import_module(module)
    for name in attr.split("."):
        obj = getattr(obj, name)
    return obj


def test_console_script_resolves_to_a_callable(pyproject):
    assert callable(resolve(pyproject["project"]["scripts"]["oce-rcps"]))


def test_version_attribute_resolves_to_the_package_version(pyproject):
    assert "version" in pyproject["project"]["dynamic"]
    reference = pyproject["tool"]["setuptools"]["dynamic"]["version"]["attr"]
    assert reference == "oce_rcps.__version__"
    assert resolve(reference) == oce_rcps.__version__
    # setuptools reads the attribute without importing the package only
    # when it is a literal assigned at the top of the module
    tree = ast.parse((SRC / "oce_rcps" / "__init__.py").read_text())
    literals = [node.value.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["__version__"]
                and isinstance(node.value, ast.Constant)]
    assert literals == [oce_rcps.__version__]


def test_module_run_prints_the_version(pyproject):
    assert pyproject["tool"]["setuptools"]["packages"]["find"]["where"] == ["src"]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    proc = subprocess.run([sys.executable, "-m", "oce_rcps.cli", "--version"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == oce_rcps.__version__
