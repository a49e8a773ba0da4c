"""Every ``repro`` subpackage imports cleanly in a fresh interpreter.

An import cycle only shows when its first module is the first one imported,
so each subpackage gets its own interpreter, and inside it every module of
the subpackage is imported again from scratch (all ``repro`` modules dropped
from ``sys.modules`` in between; third-party modules stay loaded).
"""

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

SUBPACKAGES = ["repro"] + sorted(
    f"repro.{info.name}" for info in pkgutil.iter_modules(repro.__path__) if info.ispkg)

PROBE = """
import importlib, pkgutil, sys
package = sys.argv[1]
module = importlib.import_module(package)
names = [package] + sorted(
    f"{package}.{info.name}" for info in pkgutil.iter_modules(module.__path__)
    if not info.ispkg and info.name != "__main__")
for name in names:
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    importlib.import_module(name)
print(len(names))
"""


def test_every_subpackage_is_probed():
    assert {"repro.cc", "repro.traces", "repro.topology", "repro.harness"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_subpackage_imports_in_fresh_interpreter(package):
    result = subprocess.run([sys.executable, "-c", PROBE, package],
                            cwd=SRC, env={**os.environ, "PYTHONPATH": str(SRC)},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout.strip()) >= 1
