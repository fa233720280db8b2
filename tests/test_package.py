"""The package ships what its users call: the CLI loads every module of it,
and the test oracles live beside the tests, not in it."""

import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import polarkit


def test_cli_loads_every_module_and_no_oracle_ships():
    assert importlib.util.find_spec("polarkit.oracle") is None
    modules = {f"polarkit.{m.name}" for m in pkgutil.iter_modules(polarkit.__path__)}
    # a fresh interpreter: this one has loaded whatever the other tests import
    src = str(Path(polarkit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    probe = "import sys, polarkit.cli; print(*(m for m in sys.modules if m.startswith('polarkit.')))"
    loaded = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env=env, check=True).stdout.split()
    assert "polarkit.cli" in modules and modules <= set(loaded)
