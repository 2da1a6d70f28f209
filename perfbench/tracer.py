"""Per-layer tracing of ``krel`` from outside the package.

The tracer replaces each listed entry point with a wrapper that records a
span around the call.  It rebinds every alias of the function: ``from .x
import f`` in one module makes a second name for ``f`` in another, and a
wrapper installed on only one of them would leave the other's calls
uncounted.  Nothing under ``src/`` is edited; the originals are put back
when the tracer is removed.

For each entry point the tracer keeps three numbers:

* ``calls``: how many times it was entered;
* ``incl_s``: wall time from entry to exit, counted once for nested calls
  of the same entry point;
* ``self_s``: the span's duration minus the time covered by the spans of
  other entry points called inside it.  Calls run on one thread, so child
  spans never overlap and their durations add up.

Spans are aggregated as they close, not stored one by one, so tracing a run
of a million calls costs no memory.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter
from types import ModuleType

LAYERS = ("groups", "characters", "relations", "regconst", "curvelocal",
          "parity", "harness", "exactmath")

# metric prefix -> (module, attribute); a dotted attribute names a method
ENTRY_POINTS = {
    "groups.PermGroup.init": ("groups", "PermGroup.__init__"),
    "groups.subgroup_classes": ("groups", "PermGroup.subgroup_classes"),
    "groups.double_cosets": ("groups", "PermGroup.double_cosets"),
    "characters.character_table": ("characters", "character_table"),
    "characters.inner_product": ("characters", "inner_product"),
    "characters.perm_character": ("characters", "perm_character"),
    "characters.rational_irreducibles": ("characters",
                                         "rational_irreducibles"),
    "characters.char_field_data": ("characters", "char_field_data"),
    "characters.fs_indicator": ("characters", "fs_indicator"),
    "relations._multiplicity_rows": ("relations", "_multiplicity_rows"),
    "relations.k_relation_basis": ("relations", "k_relation_basis"),
    "relations.brauer_basis": ("relations", "brauer_basis"),
    "relations.is_k_relation": ("relations", "is_k_relation"),
    "relations.find_norm_relation": ("relations", "find_norm_relation"),
    "relations.is_trivial_on_k_relations": ("relations",
                                            "is_trivial_on_k_relations"),
    "regconst.minimal_perm_multiple": ("regconst", "minimal_perm_multiple"),
    "regconst.reg_const_rational_irr": ("regconst",
                                        "reg_const_rational_irr"),
    "regconst.reg_const_perm": ("regconst", "reg_const_perm"),
    "regconst.perm_fixed_det": ("regconst", "perm_fixed_det"),
    "regconst.matrix_fixed_det": ("regconst", "matrix_fixed_det"),
    "curvelocal.validate_place": ("curvelocal", "validate_place"),
    "curvelocal.fudge_C": ("curvelocal", "fudge_C"),
    "curvelocal.local_u_contribution": ("curvelocal",
                                        "local_u_contribution"),
    "parity.theorem_main_check": ("parity", "theorem_main_check"),
    "parity.nrt_run": ("parity", "nrt_run"),
    "parity.global_C_product": ("parity", "global_C_product"),
    "parity.global_root_sign": ("parity", "global_root_sign"),
    "harness.appendix_tamagawa_check": ("harness",
                                        "appendix_tamagawa_check"),
    "harness.synthetic_model": ("harness", "synthetic_model"),
    "exactmath.snf_solve": ("exactmath", "snf_solve"),
    "exactmath.smith_normal_form": ("exactmath", "smith_normal_form"),
    "exactmath.hermite_row_basis": ("exactmath", "hermite_row_basis"),
    "exactmath.reduce_by_kernel": ("exactmath", "reduce_by_kernel"),
    "exactmath.is_norm_from_quadratic": ("exactmath",
                                         "is_norm_from_quadratic"),
}

# entry points whose first argument is a group, for calls per group
PER_GROUP = ("characters.rational_irreducibles",
             "relations._multiplicity_rows")
# entry point whose first argument is a matrix, for the repeat share
REPEATS = "exactmath.smith_normal_form"


class Tracer:
    def __init__(self):
        self.enabled = False
        self.calls: dict[str, int] = defaultdict(int)
        self.incl: dict[str, float] = defaultdict(float)
        self.self_: dict[str, float] = defaultdict(float)
        self._depth: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []  # [start, child time]
        # strong references keep ids unique for the tracer's lifetime
        self._groups: dict[str, dict[int, object]] = defaultdict(dict)
        self._matrices: set = set()
        self._matrix_repeats = 0
        self._restore: list[tuple[object, str, object]] = []

    def _note_args(self, name: str, args) -> None:
        if name in PER_GROUP:
            self._groups[name][id(args[0])] = args[0]
        elif name == REPEATS:
            key = tuple(tuple(row) for row in args[0])
            if key in self._matrices:
                self._matrix_repeats += 1
            else:
                self._matrices.add(key)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer._note_args(name, args)
            frame = [perf_counter(), 0.0]
            tracer._stack.append(frame)
            tracer._depth[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - frame[0]
                tracer._stack.pop()
                tracer._depth[name] -= 1
                tracer.calls[name] += 1
                tracer.self_[name] += dur - frame[1]
                if not tracer._depth[name]:
                    tracer.incl[name] += dur
                if tracer._stack:
                    tracer._stack[-1][1] += dur

        return traced

    def install(self, extra: tuple[ModuleType, ...] = ()) -> None:
        """Wrap every entry point and rebind all its aliases.

        Aliases are searched in every ``krel`` module and in ``extra``
        (modules of the caller that imported entry points by name).
        """
        modules = [importlib.import_module(f"krel.{m}") for m in LAYERS]
        namespaces = modules + list(extra)
        for name, (modname, attr) in ENTRY_POINTS.items():
            module = importlib.import_module(f"krel.{modname}")
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                self._rebind(owner, method, original,
                             self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._rebind(ns, key, original, wrapper)

    def _rebind(self, owner, key: str, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._restore.append((owner, key, original))

    def remove(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-entry-point metrics and waste ratios, as (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name in ENTRY_POINTS:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.incl_s"] = (self.incl[name], "s")
            out[f"{name}.self_s"] = (self.self_[name], "s")
        for name in PER_GROUP:
            groups = len(self._groups[name])
            out[f"{name}.calls_per_group"] = (
                self.calls[name] / groups if groups else 0.0, "calls/group")
        calls = self.calls[REPEATS]
        out[f"{REPEATS}.repeat_frac"] = (
            self._matrix_repeats / calls if calls else 0.0, "frac")
        return out
