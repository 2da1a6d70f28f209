"""Every function, class and module-level name the engine defines is used:
each non-dunder name defined in ``src/krel`` is named somewhere outside its
own definition, in the engine, the tests or the benchmark (its frozen copy
of the engine aside).  Names count as attributes, plain names, imports and
the dotted strings the benchmark's tracer wraps by name.

A second check lists the engine definitions that only the tests name: not
the engine, ``scripts/`` or the benchmark.  That list is ``TEST_ONLY``, each
entry with the reason it is kept, so an engine function that only tests
call needs a deliberate entry."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "krel"
FROZEN = ROOT / "perfbench" / "krel_frozen"
DOTTED = re.compile(r"[A-Za-z_][\w.]*")

# module.name of each engine definition that only the tests name, and why
# it stays in the engine
TEST_ONLY = {
    # ClassFunction's value at an element, the tests' reading of V
    "characters.at_element",
    # a class function's Galois conjugate, the oracle's orbit builder
    "characters.galois",
    # CycNumber arithmetic that the tests build their values with
    "exactmath.galois",
    "exactmath.zeta",
    # the permutation inverse, the reference for the Cayley table's inverses
    "groups.perm_inv",
    # the inverse of perm_from_cycles, its round-trip check
    "groups.perm_to_cycles",
    # element powers by repeated products, the reference for the power maps
    "groups.power",
    # ATLAS-style class names, kept for reading tables
    "groups.class_labels",
    # the Burnside ring: restricting a relation to a decomposition group is
    # the next per-place check
    "groups.burnside_add",
    "groups.burnside_res",
    "groups.burnside_ind",
    "groups.burnside_project",
    # D_v as a group of its own, for the same per-place check
    "groups.subgroup_as_group",
    # the matrix route, the reference for the permutation route; the tracer
    # names its matrix_fixed_det, so it moves when the tracer does
    "regconst.perm_matrix_rep",
    "regconst.invariant_pairing",
    "regconst.reg_const_matrix",
    # the elements Psi_d of B(C_n) that diagonalise the Burnside ring
    "relations.psi_d",
    # lattice membership, the reference for the K-relation bases
    "relations.contains",
}


def _files() -> list[Path]:
    out = sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    out += sorted(p for p in (ROOT / "perfbench").rglob("*.py")
                  if FROZEN not in p.parents)
    return out


def _named(paths) -> dict[str, list[tuple[Path, int]]]:
    """name -> every (file, line) that names it, over the given files."""
    named: dict[str, list[tuple[Path, int]]] = {}
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, line in _references(tree):
            named.setdefault(name, []).append((path, line))
    return named


def _engine_definitions() -> list[tuple[Path, str, ast.AST]]:
    """(file, name, node) for each non-dunder definition in the engine."""
    return [(path, name, node) for path in sorted(SRC.glob("*.py"))
            for name, node in _definitions(ast.parse(path.read_text()))
            if not (name.startswith("__") and name.endswith("__"))]


def _outside(named, path, name, node) -> list[Path]:
    """The files that name ``name`` outside its own definition."""
    return [where for where, line in named.get(name, ())
            if where != path or not node.lineno <= line <= node.end_lineno]


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
    named = _named(_files())
    defs = _engine_definitions()
    assert len(defs) > 100
    unused = [f"{path.name}:{node.lineno} {name}" for path, name, node in defs
              if not _outside(named, path, name, node)]
    assert not unused, f"defined but never named elsewhere: {unused}"


def test_test_only_engine_definitions_are_listed():
    named = _named(_files() + sorted((ROOT / "scripts").glob("*.py")))
    tests = ROOT / "tests"
    test_only = set()
    for path, name, node in _engine_definitions():
        users = _outside(named, path, name, node)
        if users and all(where.parent == tests for where in users):
            test_only.add(f"{path.stem}.{name}")
    assert test_only == TEST_ONLY
