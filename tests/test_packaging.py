"""Every console script pyproject.toml installs must resolve to a callable."""

import importlib
from pathlib import Path

import pytest

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
