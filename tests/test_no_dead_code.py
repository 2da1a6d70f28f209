"""Every function, class and module-level name the engine defines is used:
each non-dunder name defined in ``src/krel`` is named somewhere outside its
own definition, in the engine, the tests or the benchmark (its frozen copy
of the engine aside).  Names count as attributes, plain names, imports and
the dotted strings the benchmark's tracer wraps by name."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "krel"
FROZEN = ROOT / "perfbench" / "krel_frozen"
DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _files() -> list[Path]:
    out = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    out += sorted(p for p in (ROOT / "perfbench").rglob("*.py")
                  if FROZEN not in p.parents)
    return out


def _references(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) for every name the module mentions in code."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [(part, node.lineno) for alias in node.names
                    for part in alias.name.split(".")]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            out += [(part, node.lineno) for part in node.value.split(".")]
    return out


def _definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """(name, node) for every function and class, at any depth, and every
    name a module-level assignment binds."""
    out = [(node.name, node) for node in ast.walk(tree)
           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef))]
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        out += [(t.id, node) for target in targets
                for t in ast.walk(target) if isinstance(t, ast.Name)]
    return out


def test_every_engine_definition_is_named_elsewhere():
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in _files()}
    named: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for name, line in _references(tree):
            named.setdefault(name, []).append((path, line))
    defs = [(path, name, node) for path in sorted(SRC.glob("*.py"))
            for name, node in _definitions(trees[path])
            if not (name.startswith("__") and name.endswith("__"))]
    assert len(defs) > 100
    unused = [f"{path.name}:{node.lineno} {name}" for path, name, node in defs
              if not any(where != path
                         or not node.lineno <= line <= node.end_lineno
                         for where, line in named.get(name, ()))]
    assert not unused, f"defined but never named elsewhere: {unused}"
