"""Every config field is passed by some caller in src/, bench/ or tests/,
and every error class is raised somewhere in src/.

A field that no call site ever sets is a constant with extra ways to go
wrong; it belongs in its module as a named constant instead. An error class
that nothing raises promises callers a failure that cannot happen.
"""

import ast
import dataclasses
from pathlib import Path

from handpair.backbone import BackboneConfig
from handpair.denoiser import DenoiserConfig
from handpair.diffusion import TrainConfig
from handpair.regularizer import RegularizerConfig
from handpair.sampler import SampleConfig

ROOT = Path(__file__).resolve().parents[1]
FIELDS = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
          for cls in (SampleConfig, TrainConfig, BackboneConfig, DenoiserConfig,
                      RegularizerConfig)}


def _callee(func) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def test_every_config_field_is_passed_by_some_caller():
    passed = {name: set() for name in FIELDS}
    for folder in ("src", "bench", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                name = _callee(node.func) if isinstance(node, ast.Call) else None
                if name in FIELDS:
                    passed[name].update(FIELDS[name][:len(node.args)])
                    passed[name].update(kw.arg for kw in node.keywords if kw.arg)
    unset = {name: [f for f in fields if f not in passed[name]]
             for name, fields in FIELDS.items()}
    assert not any(unset.values()), f"config fields no caller sets: {unset}"


def test_every_error_class_is_raised_in_src():
    package = ROOT / "src" / "handpair"
    # errors.py holds HandpairError and its subclasses, nothing else.
    errors = {node.name for node in ast.parse((package / "errors.py").read_text()).body
              if isinstance(node, ast.ClassDef)} - {"HandpairError"}
    raised = set()
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(_callee(exc))
    never = sorted(errors - raised)
    assert not never, f"error classes nothing in src/ raises: {never}"
