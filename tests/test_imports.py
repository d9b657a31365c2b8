"""Every handpair module imports cleanly when it is the first one imported."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# One interpreter for all modules: numpy and scipy stay cached between
# imports, and only the handpair modules are purged.
SCRIPT = """
import importlib, pkgutil, sys
import handpair
names = ["handpair"] + [f"handpair.{m.name}" for m in pkgutil.iter_modules(handpair.__path__)]
for name in names:
    for key in [k for k in sys.modules if k.split(".")[0] == "handpair"]:
        del sys.modules[key]
    importlib.import_module(name)
print(len(names))
"""


def test_every_module_imports_first():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) == 1 + len(list(SRC.joinpath("handpair").glob("[!_]*.py")))
