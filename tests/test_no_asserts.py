"""Correctness checks in the engine are named exceptions, never ``assert``
statements, which ``python -O`` strips."""

import ast
from pathlib import Path

import krel

SOURCES = sorted(Path(krel.__file__).parent.glob("*.py"))


def test_engine_has_no_assert_statements():
    assert len(SOURCES) >= 9
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the engine: {found}"
