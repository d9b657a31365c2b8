"""Every console script pyproject.toml installs must resolve to a callable,
and the package version is the one pyproject.toml declares."""

import importlib
from pathlib import Path

import pytest

import handpair

tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_scripts_resolve():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    broken = []
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        try:
            ok = callable(getattr(importlib.import_module(module), attr))
        except (ImportError, AttributeError):
            ok = False
        if not ok:
            broken.append(f"{name} = {target}")
    assert broken == []


def test_package_version_matches_pyproject():
    # Every artifact manifest records handpair.__version__ as its tool_version.
    assert tomllib.loads(PYPROJECT.read_text())["project"]["version"] == handpair.__version__
