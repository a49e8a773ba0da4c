"""Every ``repro`` subpackage imports cleanly in a fresh interpreter.

An import cycle only shows when its first module is the first one imported,
so each subpackage gets its own interpreter, and inside it every module of
the subpackage is imported again from scratch (all ``repro`` modules dropped
from ``sys.modules`` in between; third-party modules stay loaded).
"""

import importlib
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


#: What printing CLI help must not import: building the parser reads only
#: NumPy-free constants, and every handler imports its own stack.
HEAVY_MODULES = ["numpy", "repro.harness.evaluate", "repro.falsify.search", "repro.serve.daemon"]

HELP_PATHS = {
    "build_parser": "import repro.cli\nrepro.cli.build_parser().format_help()",
    "runpy --help": ("import runpy\nsys.argv = ['repro', '--help']\n"
                     "try:\n    runpy.run_module('repro', run_name='__main__')\n"
                     "except SystemExit:\n    pass"),
}


@pytest.mark.parametrize("path", sorted(HELP_PATHS))
def test_cli_help_path_imports_no_numpy_or_harness(path):
    code = (f"import sys\n{HELP_PATHS[path]}\n"
            f"sys.stderr.write(repr([m for m in {HEAVY_MODULES!r} if m in sys.modules]))")
    result = subprocess.run([sys.executable, "-c", code], cwd=SRC,
                            env={**os.environ, "PYTHONPATH": str(SRC)},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines()[-1] == "[]"


LAZY_PACKAGES = ["repro.falsify", "repro.harness", "repro.obs", "repro.serve", "repro.telemetry"]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_exports_resolve_and_are_listed(package):
    module = importlib.import_module(package)
    assert module.__all__
    listed = dir(module)
    for name in module.__all__:
        assert hasattr(module, name), name
        assert name in listed, name
    with pytest.raises(AttributeError, match="no attribute 'not_exported'"):
        getattr(module, "not_exported")
