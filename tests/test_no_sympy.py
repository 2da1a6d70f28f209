"""The engine runs on the standard library alone: sympy is a test-only
oracle, never imported by ``krel``.  Nor does the engine import a source
of randomness: randomness reaches it only through a caller's ``rng``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import krel

SRC = Path(krel.__file__).parent
SOURCES = sorted(SRC.glob("*.py"))


def engine_imports_of(packages):
    """file:line of every import in the engine of one of these packages."""
    assert len(SOURCES) >= 9
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] in packages]
    return found


def test_engine_modules_do_not_import_sympy():
    found = engine_imports_of({"sympy"})
    assert not found, f"sympy imports in the engine: {found}"


def test_engine_modules_do_not_import_randomness():
    found = engine_imports_of({"random", "secrets"})
    assert not found, f"random or secrets imports in the engine: {found}"


def test_fresh_import_leaves_sympy_unloaded():
    code = ("import sys; import krel.harness, krel.parity, krel.regconst, "
            "krel.relations; print('sympy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "False"
