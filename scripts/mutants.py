#!/usr/bin/env python3
"""Mutation check of the local formulas: for each deliberately wrong
formula, does some test fail?

    python3 scripts/mutants.py [TEST_FILE ...]

Run from the root of a checkout.  Each mutant is one textual replacement
(file, old, new, reason) in ``src/krel``.  For each one the script copies
the checkout's ``src/``, ``tests/`` and ``pyproject.toml`` into a temporary
directory, applies the replacement there, runs ``pytest -x -q`` on the test
files (default ``DEFAULT_TESTS``) and prints a table: ``killed`` when some
test failed, ``SURVIVED`` when all passed, ``error`` for any other pytest
exit status.  The mutants of ``EQUIVALENT`` change no verdict that parity
can see; each carries its reason, and one that passes every test reads
``equivalent``.  The unmutated copy is run first and must pass.  The
checkout itself is never changed.  An ``old`` text that does not occur
exactly once in its file is an error.  Standard library only, apart from
pytest itself; the exit status is 1 when a mutant of ``MUTANTS`` survives
or any mutant errs.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

DEFAULT_TESTS = ("tests/test_curvelocal.py", "tests/test_parity.py",
                 "tests/test_harness.py", "tests/test_relations.py",
                 "tests/test_regconst.py", "tests/test_groups.py",
                 "tests/test_groupdata.py", "tests/test_characters.py",
                 "tests/test_lift_and_lattice.py",
                 "tests/test_brauer_parity.py")

CHARACTERS = "src/krel/characters.py"
CURVELOCAL = "src/krel/curvelocal.py"
EXACTMATH = "src/krel/exactmath.py"
GROUPS = "src/krel/groups.py"
HARNESS = "src/krel/harness.py"
PARITY = "src/krel/parity.py"
REGCONST = "src/krel/regconst.py"
RELATIONS = "src/krel/relations.py"

# (file, old, new, reason)
MUTANTS = [
    (CURVELOCAL,
     "        return 2 if en % 2 == 0 else 1",
     "        return en",
     "nonsplit I_n with odd f gives e*n"),
    (CURVELOCAL,
     "        return e * red.n\n    if isinstance(red, NonsplitMult):",
     "        return 3 * e * red.n\n    if isinstance(red, NonsplitMult):",
     "split I_n gives 3*e*n"),
    (CURVELOCAL,
     "        return e * red.n\n    if isinstance(red, NonsplitMult):",
     "        return red.n\n    if isinstance(red, NonsplitMult):",
     "split I_n drops e"),
    (CURVELOCAL,
     "        if g == 3:\n            return 2",
     "        if g == 3:\n            return 1",
     "potentially good, gcd(delta*e, 12) = 3 gives 1"),
    (CURVELOCAL,
     "return 3 if is_square_in_ext(red.b_class, e, f) else 1",
     "return 1 if is_square_in_ext(red.b_class, e, f) else 3",
     "potentially good, gcd(delta*e, 12) = 4 swaps 3 and 1"),
    (CURVELOCAL,
     "return 4 if is_square_in_ext(key, e, f) else 2",
     "return 2 if is_square_in_ext(key, e, f) else 4",
     "potentially multiplicative, odd e swaps 4 and 2"),
    (CURVELOCAL,
     "    if red.dprime is not None and h <= red.dprime:",
     "    if red.dprime is not None:",
     "potentially multiplicative, even e: split whenever D' exists"),
    (CURVELOCAL,
     "    if red.dprime is not None and h <= red.dprime:",
     "    if is_square_in_ext(SquareClassLocal(\n"
     "            1, red.minus_c6_class.unit_is_square == (p.q % 4 == 1)),\n"
     "            e, f):",
     "potentially multiplicative, even e: split when c6 = -(-c6) is a "
     "square by (e, f) alone"),
    (CURVELOCAL,
     "(x.unit_is_square or f % 2 == 0)",
     "x.unit_is_square",
     "is_square_in_ext ignores f"),
    (CURVELOCAL,
     "exponent = (red.delta * e // 12) * f",
     "exponent = (red.delta * e // 12)",
     "potentially good exponent drops f"),
    (CURVELOCAL,
     "exponent = (e // 2) * f",
     "exponent = (e // 2)",
     "potentially multiplicative exponent drops f"),
    (CURVELOCAL,
     "exponent = (red.delta * e // 12) * f",
     "exponent = (-(-red.delta * e // 12)) * f",
     "potentially good exponent rounds delta*e/12 up"),
    (CURVELOCAL,
     "exponent = (e // 2) * f",
     "exponent = (-(-e // 2)) * f",
     "potentially multiplicative exponent rounds e/2 up"),
    (CURVELOCAL,
     "exponent = (red.delta * e // 12) * f",
     "exponent = (red.delta * e // 6) * f",
     "potentially good exponent reads delta*e/6"),
    (RELATIONS,
     "            if (mask & odd).bit_count() % 2:",
     "            if (mask & odd).bit_count():",
     "triviality test counts any obstructed odd class, not their parity"),
    (EXACTMATH,
     "    places: set = {PLACE_INF, 2}",
     "    places: set = {PLACE_INF}",
     "norm obstruction never examines the place 2"),
    (EXACTMATH,
     "    expo = eps_u * eps_v + alpha * omega_v + beta * omega_u",
     "    expo = eps_u * eps_v + alpha * omega_v",
     "Hilbert symbol at 2 drops the beta*omega_u term"),
    (HARNESS,
     "        rep = memo.get((d, values))\n"
     "        if rep is None:\n"
     "            rep = memo[d, values] = ",
     "        rep = memo.get(values)\n"
     "        if rep is None:\n"
     "            rep = memo[values] = ",
     "appendix memo keyed without the field d"),
    (HARNESS,
     "    return tuple(_as_fraction(fn(c.representative))",
     "    return tuple((fn(c.representative))",
     "appendix memo keyed on raw values, not _as_fraction"),
    (GROUPS,
     "                    used.update(self._mul[h][g] for h in H)",
     "                    used.update((g, self._mul[g][g]))",
     "subgroup lattice skips g and g^2, not the coset H*g"),
    (CHARACTERS,
     "    return tuple(mobius(m) * (phi // euler_phi(m))",
     "    return tuple(mobius(m) * (phi // m)",
     "trace of a root of unity mu(m)*phi(n)/phi(m) read as mu(m)*phi(n)/m"),
    (CHARACTERS,
     "            if orbit[0] < j:\n                out.append(out[orbit[0]])",
     "            if 0 < j:\n                out.append(out[0])",
     "every irreducible shares the first orbit's class weight row"),
    (CHARACTERS,
     "            if orbit[0] < j:\n                out.append(out[orbit[0]])",
     "            if orbit[0] < j:\n                out.append(out[j - 1])",
     "a Galois conjugate takes the weight row of the irreducible before it"),
    (CHARACTERS,
     "            rows.append([mults[slot[orbit[0]]] for orbit in orbits])",
     "            rows.append([mults[slot[orbit[0]]] if orbit[0] == j\n"
     "                         else mults[0]\n"
     "                         for j, orbit in enumerate(orbits)])",
     "a Galois conjugate takes the first multiplicity of the row"),
    (CHARACTERS,
     "        bias = sum(half << s for s in shifts)",
     "        bias = sum(half << (s + width) for s in shifts)",
     "the packed multiplicity rows' sign bias shifted by one slot"),
    (CHARACTERS,
     "        if j is not None and j < len(irrs) and irrs[j] is chi:",
     "        if j is not None:",
     "irreducible_index trusts a table index it does not check"),
    (RELATIONS,
     "    got = data.k_lattices.get(cond)\n"
     "    if got is None:\n"
     "        got = data.k_lattices[cond] = ",
     "    got = data.k_lattices.get(d > 0)\n"
     "    if got is None:\n"
     "        got = data.k_lattices[d > 0] = ",
     "K-relation lattices kept by the sign of d, not the condition set"),
    (HARNESS,
     "                            fn, values = potmult(n, du, bu, dp)",
     "                            fn, values = (potmult(n, du, bu, dp)[0],"
     "\n                                          potmult(n, True, True,"
     " dp)[1])",
     "value vector shared across the unit flags of one (n, D')"),
    (HARNESS,
     "                        fn, values = potgood(delta, du, bu, dihedral)",
     "                        fn, values = (potgood(delta, du, bu,"
     " dihedral)[0],\n                                      potgood(delta,"
     " True, True,"
     " dihedral)[1])",
     "value vector shared across the unit flags of one delta"),
    (CURVELOCAL,
     "_SIGMA = {1: 2, 2: -2, 3: -1, 4: 0, 6: 1}",
     "_SIGMA = {1: 2, 2: -2, 3: 1, 4: 0, 6: 1}",
     "dihedral V reads sigma = +1 at rotations of order 3"),
    (CURVELOCAL,
     "                G, x, dprime)] if x in rot else 0)",
     "                G, x, dprime)] if x in self.isub else 0)",
     "dihedral V vanishes off I_v instead of off the rotations I_v D'"),
    (CURVELOCAL,
     "_SIGMA = {1: 2, 2: -2, 3: -1, 4: 0, 6: 1}",
     "_SIGMA = {1: 2, 2: -2, 3: -1, 4: 0, 6: -1}",
     "dihedral V reads sigma = -1 at rotations of order 6"),
    (CURVELOCAL,
     "_SIGMA = {1: 2, 2: -2, 3: -1, 4: 0, 6: 1}",
     "_SIGMA = {1: 2, 2: 2, 3: -1, 4: 0, 6: 1}",
     "dihedral V reads sigma = +2 at rotations of order 2"),
    (CURVELOCAL,
     "        if red.delta_class.val_parity != v_delta % 2:",
     "        if False:",
     "the declared discriminant class may contradict v(Delta)"),
    (CURVELOCAL,
     "            kernel = G.closure(self.isub | {G.mul(y, y) for y in "
     "self.dsub})",
     "            kernel = self.isub",
     "nonsplit V is +1 on I_v only, not on I_v and the squares"),
    (CURVELOCAL,
     "    if (x is None or G.mul(y, y) not in dprime\n            or ",
     "    if (x is None\n            or ",
     "dihedral D' rules drop y^2 in D' (dicyclic quotients pass)"),
    (PARITY,
     "is_cyclic or len(p.dsub) % 2 == 1\n",
     "is_cyclic\n",
     "NRT obstructions ignore odd |D_v|"),
    (PARITY,
     "    prediction = not all(norm_verdicts.values()) or square_ok is False",
     "    prediction = not all(norm_verdicts.values())",
     "NRT ignores a failed rational square test when m is even"),
    (REGCONST,
     "mat_mul(_transpose(m), m)",
     "mat_mul(m, m)",
     "invariant pairing sums M_g M_g instead of M_g^T M_g"),
    (REGCONST,
     "    for img in rep.images:\n"
     "        if mat_mul(_transpose(img), mat_mul(q, img)) != q:\n"
     "            raise ValueError(\"pairing is not invariant\")\n",
     "",
     "a supplied pairing is not checked for invariance"),
    (CHARACTERS,
     "        if covered == d:\n            return sorted(spaces.items())",
     "        if covered == d or start == 0:\n"
     "            return sorted(spaces.items())",
     "the eigenspace split stops after e_0's Krylov sequence"),
    (CHARACTERS,
     "        if covered == d:\n            return sorted(spaces.items())",
     "        if covered >= d - 1:\n            return sorted(spaces.items())",
     "the eigenspace split returns while its kernels still miss a line"),
    (CHARACTERS,
     "    return basis, free",
     "    return basis, pivots",
     "a kernel is returned with its pivot columns for its free columns"),
    (CHARACTERS,
     "        if total != (norm << shifts[a] if a in shifts else 0):",
     "        if (total - (norm << shifts[a] if a in shifts else 0)"
     " >> shifts.get(a, 0)) & ((1 << width) - 1):",
     "the packed orthogonality check compares only the row's own slot"),
    (CHARACTERS,
     "    width = bound.bit_length() + 2",
     "    width = bound.bit_length()",
     "orthogonality slots lose the margin of a signed difference"),
    (EXACTMATH,
     "        if n > 0:\n"
     "            num *= x.numerator ** n\n"
     "            den *= x.denominator ** n",
     "        if n:\n"
     "            num *= x.numerator ** abs(n)\n"
     "            den *= x.denominator ** abs(n)",
     "fraction_product takes a negative exponent as its absolute value"),
    (RELATIONS,
     "    head = character_table(G).orbits[idx][0]",
     "    head = chi.degree()",
     "the orbit record keyed by the irreducible's degree"),
    (REGCONST,
     "    val = memo.get((hcid, dcid))\n"
     "    if val is None:\n"
     "        val = memo[hcid, dcid] = ",
     "    val = memo.get(hcid)\n"
     "    if val is None:\n"
     "        val = memo[hcid] = ",
     "fixed_dets keyed by the class id of H alone"),
    (HARNESS,
     "len(h) // len(local)",
     "len(local)",
     "V's determinant takes |H ∩ xDx^-1| for the index"),
    (PARITY,
     "    u_exponents = dict(model.u_exponents)",
     "    u_exponents = model.u_exponents",
     "theorem reports share the model's u dict instead of a copy"),
    (CURVELOCAL,
     "    f = exact_quotient(len(dsub) * li, len(isub) * len(lsub), what)",
     "    f = exact_quotient(len(dsub), len(isub), what)",
     "local_ef reads f as [D : I], ignoring the local subgroup"),
    (PARITY,
     "                if not is_norm_from_quadratic(\n",
     "                if is_norm_from_quadratic(\n",
     "NRT constraints list the tau whose regulator constant is a norm"),
    (CURVELOCAL,
     "        if problems:\n            raise InvalidPlace(",
     "        if False:\n            raise InvalidPlace(",
     "a place that breaks a rule is built without complaint"),
    (CURVELOCAL,
     "@dataclass(frozen=True)\nclass PlaceDescriptor:",
     "@dataclass\nclass PlaceDescriptor:",
     "places are mutable, so a model's record can go stale"),
    (PARITY,
     "    if chi.group is not model.group:\n"
     "        raise ValueError(\"chi is not a character of the model's group\")\n",
     "",
     "global_root_sign takes a character of another group"),
    (CHARACTERS,
     "                if fd.degree_factor(d) == 2)",
     "                if fd.degree_factor(d) == 1)",
     "K-membership takes the conditions of the chi with "
     "[K : K ∩ Q(chi)] = 1"),
    (CURVELOCAL,
     "    return fe > 2 and q % fe == fe - 1",
     "    return fe >= 2 and q % fe == fe - 1",
     "the dihedral criterion admits fe = 2"),
    (CURVELOCAL,
     "        return Fraction(tamagawa(p, h))\n",
     "        return Fraction(tamagawa(p, h)) * (\n"
     "            241 if p.name == \"v0\" and len(h) == 1 else 1)\n",
     "fudge_C gains 241, a norm from Q(i), Q(sqrt 2), Q(sqrt -3) and "
     "Q(sqrt 5) but no square, at the trivial subgroup of place v0"),
    (CURVELOCAL,
     "    m = fraction_sum(((means[k], w) for k, w in rd.v_terms), "
     "len(p.dsub))",
     "    m = fraction_sum(((means[k], w) for k, w in rd.v_terms), "
     "p.group.order)",
     "V's pairing divides by |G| instead of |D_v|"),
    (CHARACTERS,
     "        if self.table_index is not None:\n            ((_, dim),) = ",
     "        if False:\n            ((_, dim),) = ",
     "an irreducible of the table reads its degree from a cyclotomic value"),
]

# Mutants that no parity verdict can see, each with the reason.  They are
# run and reported like the others, but a survivor here is no failure.
EQUIVALENT = [
    (CURVELOCAL,
     "            return _with_v(self, 1, lambda x: 1 if x in kernel else -1)",
     "            return _with_v(self, 1, lambda x: -1 if x in kernel else 1)",
     "nonsplit V negated: <chi, -V> = -<chi, V> = <chi, V> mod 2, so every "
     "u bit is unchanged; only the tests that restate V see it"),
]


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _mutate(tree: Path, file: str, old: str, new: str) -> None:
    path = tree / file
    text = path.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{file}: mutant text occurs {text.count(old)} "
                         f"times, not once: {old!r}")
    path.write_text(text.replace(old, new))


def _pytest(tree: Path, tests: list[str]) -> tuple[int, float]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    got = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    return got.returncode, time.perf_counter() - start


def main(argv: list[str]) -> int:
    tests = argv or list(DEFAULT_TESTS)
    with tempfile.TemporaryDirectory(prefix="krel-mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        code, _ = _pytest(clean, tests)
        if code != 0:
            print(f"unmutated tests fail (pytest exit {code}); no table")
            return 1
        print(f"{'#':>2}  {'verdict':10}  {'s':>5}  mutant")
        bad = killed = 0
        listed = ([(m, False) for m in MUTANTS]
                  + [(m, True) for m in EQUIVALENT])
        for k, ((file, old, new, reason), equivalent) in enumerate(listed, 1):
            tree = Path(tmp) / f"m{k}"
            _copy(tree)
            _mutate(tree, file, old, new)
            code, secs = _pytest(tree, tests)
            if code == 0 and equivalent:
                verdict = "equivalent"
            else:
                verdict = {0: "SURVIVED", 1: "killed"}.get(code,
                                                          f"error {code}")
                bad += code != 1
                killed += code == 1 and not equivalent
            print(f"{k:>2}  {verdict:10}  {secs:5.1f}  {reason}", flush=True)
            shutil.rmtree(tree)
        print(f"{killed} of {len(MUTANTS)} killed, "
              f"{len(EQUIVALENT)} listed as equivalent")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
