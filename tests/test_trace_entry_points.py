"""Every entry point the benchmark tracer wraps still exists in ``krel``.

The tracer (``perfbench/tracer.py``) finds each function by module and
attribute name, so deleting or moving one would only show as a crash of a
traced benchmark run.  Its ``ENTRY_POINTS`` table is read here with ``ast``,
without importing the benchmark.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def entry_points():
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "ENTRY_POINTS"
                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no ENTRY_POINTS table in {TRACER}")


def test_every_traced_entry_point_resolves():
    points = entry_points()
    assert len(points) >= 30
    for name, (module, attr) in points.items():
        obj = importlib.import_module(f"krel.{module}")
        for part in attr.split("."):
            assert hasattr(obj, part), f"{name}: krel.{module}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), name
