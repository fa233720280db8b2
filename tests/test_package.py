"""The package ships what its users call: the CLI loads every module of it,
the top level exports what README names or the CLI and simulator import,
and the test oracles live beside the tests, not in it."""

import ast
import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import polarkit


def _fresh(probe: str) -> str:
    """stdout of `probe` run in a fresh interpreter: this one has loaded
    whatever the other tests import."""
    src = str(Path(polarkit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True).stdout


def test_cli_loads_every_module_and_no_oracle_ships():
    assert importlib.util.find_spec("polarkit.oracle") is None
    modules = {f"polarkit.{m.name}" for m in pkgutil.iter_modules(polarkit.__path__)}
    loaded = _fresh("import sys, polarkit.cli; "
                    "print(*(m for m in sys.modules if m.startswith('polarkit.')))").split()
    assert "polarkit.cli" in modules and modules <= set(loaded)


def test_cli_import_leaves_the_process_pool_out():
    # the pool's module costs start-up time; only a run on several workers loads it
    probe = "import sys, polarkit.cli; print('concurrent.futures.process' in sys.modules)"
    assert _fresh(probe).strip() == "False"


def _readme_code_names() -> set:
    """Identifiers that README.md writes inside code spans or blocks."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```.*?```", text, flags=re.S)
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    return {name for code in blocks + spans for name in re.findall(r"\w+", code)}


def _imported_by(module: str) -> set:
    """Names that polarkit.<module> imports from the package's own modules."""
    tree = ast.parse((Path(polarkit.__file__).parent / f"{module}.py").read_text())
    return {alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names}


def test_top_level_exports_are_readme_or_cli_and_sim_names():
    exported = {name for name, value in vars(polarkit).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    users = _readme_code_names() | _imported_by("cli") | _imported_by("sim")
    assert exported - users == set()


def test_test_only_wrappers_are_gone():
    from polarkit import channel, construction, core, decoder, patterns

    gone = [(channel, "bec_llr"), (channel, "_llr_row"), (decoder, "g_llr"),
            (construction, "tau"), (construction, "tau_inverse"),
            (core, "bit_reverse_permute"), (patterns, "pattern_plan"),
            (patterns, "TWO_BIT_PATTERNS"), (patterns, "FOUR_BIT_PATTERNS"),
            (patterns, "EIGHT_BIT_PATTERNS"), (patterns, "SIXTEEN_BIT_PATTERNS"),
            (decoder.ModeConfig, "mode4"), (decoder.ModeConfig, "mode2")]
    assert [name for owner, name in gone if hasattr(owner, name)] == []
