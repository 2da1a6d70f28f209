"""Finite permutation groups with cached multiplication tables.

Everything downstream (Burnside-ring arithmetic, character tables, the
regulator-constant machinery) works on element indices into a group's
sorted element list, so hot loops reduce to integer table lookups.
Subgroups are frozensets of indices; subgroup conjugacy classes carry
stable string ids of the form "order.j".

The multiplication table is written from the closure walk, not from |G|²
compositions.  The breadth-first closure composes each element with each
generator once, |G|·|gens| compositions, and records for each element x_t
the element x_j and generator g it was first reached from, x_t = x_j∘g.
Then column t of the table is column j read through right multiplication
by g: x_i∘x_t = (x_i∘x_j)∘g, one integer lookup per entry.  A generator
whose order, the lcm of its cycle lengths, exceeds the order bound is
rejected before the closure starts.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .exactmath import ExactCheckError, factor_bounded

Perm = tuple[int, ...]
# (representative, local subgroup) per double coset, as double_cosets returns
DoubleCosets = tuple[tuple[int, frozenset[int]], ...]

GROUP_ORDER_BOUND = 512


class GroupTooLargeError(ValueError):
    """Raised when the group, or the cyclic group of one generator, exceeds
    the configured order bound."""


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def perm_mul(p: Perm, q: Perm) -> Perm:
    """Compose permutations, q applied first."""
    return tuple(p[j] for j in q)


def perm_inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def perm_order(p: Perm) -> int:
    """The order of p, the lcm of its cycle lengths."""
    seen = [False] * len(p)
    lengths = []
    for start in range(len(p)):
        k, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = p[x]
            k += 1
        if k:
            lengths.append(k)
    return math.lcm(*lengths)


def perm_from_cycles(text: str, degree: int) -> Perm:
    """Parse 1-based disjoint cycle notation such as "(1 2 3)(4 5)"."""
    body = text.strip()
    if body in ("", "()", "e", "id", "1"):
        return identity_perm(degree)
    cycles = re.findall(r"\(([^()]*)\)", body)
    if re.sub(r"\([^()]*\)", "", body).strip():
        raise ValueError(f"malformed cycle string: {text!r}")
    images = list(range(degree))
    seen: set[int] = set()
    for cyc in cycles:
        pts = [int(t) - 1 for t in re.split(r"[,\s]+", cyc.strip()) if t]
        if not pts:
            continue
        for pt in pts:
            if not 0 <= pt < degree:
                raise ValueError(f"point {pt + 1} outside degree {degree}")
            if pt in seen:
                raise ValueError(f"point {pt + 1} repeated in {text!r}")
            seen.add(pt)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return tuple(images)


def perm_to_cycles(p: Perm) -> str:
    """Inverse of perm_from_cycles, fixed points omitted."""
    seen = [False] * len(p)
    parts = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        nxt = p[start]
        while nxt != start:
            cyc.append(nxt)
            seen[nxt] = True
            nxt = p[nxt]
        parts.append("(" + " ".join(str(i + 1) for i in cyc) + ")")
    return "".join(parts) if parts else "()"


@dataclass
class SubgroupClass:
    """A conjugacy class of subgroups, canonical representative first."""

    id: str
    index: int
    order: int
    representative: frozenset[int]
    conjugates: tuple[frozenset[int], ...]
    is_cyclic: bool
    is_normal: bool


class PermGroup:
    # a fixed attribute set: per-group invariants belong in `data`
    __slots__ = ("degree", "name", "elements", "order", "_index",
                 "generator_indices", "_mul", "_inv", "_order_of", "_classes",
                 "_class_of", "_power_rows", "_subgroup_classes",
                 "_subgroup_lookup", "_subgroup_ids", "_gen_sets",
                 "_sub_lattices", "_double_cosets", "_data")

    def __init__(self, degree: int, generators: list[Perm], name: str | None = None,
                 order_bound: int = GROUP_ORDER_BOUND):
        self.degree = degree
        self.name = name
        gens = []
        for g in generators:
            g = tuple(g)
            if sorted(g) != list(range(degree)):
                raise ValueError(f"not a permutation of degree {degree}: {g}")
            k = perm_order(g)
            if k > order_bound:
                raise GroupTooLargeError(
                    f"a generator has order {k}, above the group order "
                    f"bound {order_bound}")
            gens.append(g)
        # breadth-first closure, keeping every product p∘g: found[k] was
        # first reached as found[j]∘gens[gi] with (j, gi) = parent[k]
        ident = identity_perm(degree)
        found = [ident]
        seen = {ident}
        parent: list[tuple[int, int]] = [(0, 0)]
        products: list[list[Perm]] = []
        for j, p in enumerate(found):
            row = [perm_mul(p, g) for g in gens]
            for gi, q in enumerate(row):
                if q not in seen:
                    if len(seen) >= order_bound:
                        raise GroupTooLargeError(
                            f"group order exceeds bound {order_bound}")
                    seen.add(q)
                    found.append(q)
                    parent.append((j, gi))
            products.append(row)
        self.elements: list[Perm] = sorted(found)
        self.order = n = len(self.elements)
        self._index = idx = {p: i for i, p in enumerate(self.elements)}
        if self.elements[0] != ident:
            raise ExactCheckError("the identity is not the least element")
        self.generator_indices = tuple(sorted({idx[g] for g in gens}))
        pos = [idx[p] for p in found]
        right = [[0] * n for _ in gens]  # right[gi][i] = index of x_i∘g
        for j, row in enumerate(products):
            for gi, q in enumerate(row):
                right[gi][pos[j]] = idx[q]
        # x_t = x_j∘g, so column t is column j read through right[g]
        cols: list[list[int]] = [[]] * n
        cols[0] = list(range(n))
        for k in range(1, n):
            j, gi = parent[k]
            cols[pos[k]] = list(map(right[gi].__getitem__, cols[pos[j]]))
        self._mul = [list(row) for row in zip(*cols)]
        self._inv = [row.index(0) for row in self._mul]
        self._order_of = [self._element_order(i) for i in range(n)]
        self._classes: list[tuple[int, ...]] | None = None
        self._class_of: list[int] | None = None
        self._power_rows: dict[int, tuple[int, ...]] = {}
        self._subgroup_classes: list[SubgroupClass] | None = None
        self._subgroup_lookup: dict[frozenset[int], int] = {}
        self._subgroup_ids: dict[str, SubgroupClass] = {}
        self._gen_sets: dict[frozenset[int], tuple[int, ...]] = {}
        self._sub_lattices: dict[frozenset[int], list[SubgroupClass]] = {}
        self._double_cosets: dict[tuple[frozenset[int], frozenset[int]],
                                  DoubleCosets] = {}
        self._data = None  # krel.characters.GroupData, built by .data

    @property
    def data(self):
        """The per-group invariant record (:class:`krel.characters.GroupData`),
        created on first use and filled lazily."""
        if self._data is None:
            from .characters import GroupData
            self._data = GroupData(self)
        return self._data

    # -- elementary queries ------------------------------------------------

    def mul(self, i: int, j: int) -> int:
        return self._mul[i][j]

    def inv(self, i: int) -> int:
        return self._inv[i]

    def element_index(self, p: Perm) -> int:
        return self._index[tuple(p)]

    def _element_order(self, i: int) -> int:
        k, x = 1, i
        while x != 0:
            x = self._mul[x][i]
            k += 1
        return k

    def element_order(self, i: int) -> int:
        return self._order_of[i]

    def exponent(self) -> int:
        return math.lcm(*self._order_of) if self.order > 1 else 1

    def power(self, i: int, k: int) -> int:
        k %= self._order_of[i]
        x = 0
        for _ in range(k):
            x = self._mul[x][i]
        return x

    def conjugate(self, i: int, g: int) -> int:
        """g^{-1} * i * g."""
        return self._mul[self._mul[self._inv[g]][i]][g]

    # -- conjugacy classes of elements --------------------------------------

    def conjugacy_classes(self) -> list[tuple[int, ...]]:
        if self._classes is None:
            seen = [False] * self.order
            raw = []
            for i in range(self.order):
                if seen[i]:
                    continue
                orbit = {i}
                frontier = [i]
                while frontier:
                    nxt = []
                    for x in frontier:
                        for g in self.generator_indices:
                            y = self.conjugate(x, g)
                            if y not in orbit:
                                orbit.add(y)
                                nxt.append(y)
                    frontier = nxt
                for x in orbit:
                    seen[x] = True
                raw.append(tuple(sorted(orbit)))
            raw.sort(key=lambda c: (self._order_of[c[0]], c[0]))
            self._classes = raw
            self._class_of = [0] * self.order
            for k, cls in enumerate(raw):
                for x in cls:
                    self._class_of[x] = k
        return self._classes

    def class_of(self, i: int) -> int:
        self.conjugacy_classes()
        return self._class_of[i]

    def class_labels(self) -> list[str]:
        labels = []
        counts: dict[int, int] = {}
        for cls in self.conjugacy_classes():
            o = self._order_of[cls[0]]
            j = counts.get(o, 0)
            counts[o] = j + 1
            suffix = ""
            while True:
                suffix = chr(ord("a") + j % 26) + suffix
                j = j // 26 - 1
                if j < 0:
                    break
            labels.append(f"{o}{suffix}")
        return labels

    def power_class_row(self, class_idx: int) -> tuple[int, ...]:
        """Class of rep^t for t = 0 .. order(rep)-1, cached."""
        got = self._power_rows.get(class_idx)
        if got is None:
            rep = self.conjugacy_classes()[class_idx][0]
            row, x = [], 0
            for _ in range(self._order_of[rep]):
                row.append(self.class_of(x))
                x = self._mul[x][rep]
            got = self._power_rows[class_idx] = tuple(row)
        return got

    def power_class(self, class_idx: int, k: int) -> int:
        row = self.power_class_row(class_idx)
        return row[k % len(row)]

    # -- subgroup machinery --------------------------------------------------

    def closure(self, seeds) -> frozenset[int]:
        sub = {0}
        frontier = [0]
        seeds = tuple(seeds)
        while frontier:
            nxt = []
            for x in frontier:
                row = self._mul[x]
                for g in seeds:
                    y = row[g]
                    if y not in sub:
                        sub.add(y)
                        nxt.append(y)
            frontier = nxt
        return frozenset(sub)

    def generating_indices(self, sub: frozenset[int]) -> tuple[int, ...]:
        """A small generating set, cached per subgroup."""
        got = self._gen_sets.get(sub)
        if got is not None:
            return got
        gens: list[int] = []
        have: frozenset[int] = frozenset({0})
        for x in sorted(sub):
            if x not in have:
                gens.append(x)
                have = self.closure(gens)
                if have == sub:
                    break
        if have != sub:
            raise ValueError("seed set is not a subgroup")
        out = tuple(gens)
        self._gen_sets[sub] = out
        return out

    def conjugate_subgroup(self, sub: frozenset[int], g: int) -> frozenset[int]:
        return frozenset(self.conjugate(x, g) for x in sub)

    def is_normal_subgroup(self, sub: frozenset[int]) -> bool:
        return all(self.conjugate_subgroup(sub, g) == sub
                   for g in self.generator_indices)

    def _subgroup_orbit(self, sub: frozenset[int],
                        gens) -> list[frozenset[int]]:
        """The conjugates of sub under the subgroup generated by gens,
        sorted."""
        orbit = {sub}
        frontier = [sub]
        while frontier:
            nxt = []
            for H in frontier:
                for g in gens:
                    K = self.conjugate_subgroup(H, g)
                    if K not in orbit:
                        orbit.add(K)
                        nxt.append(K)
            frontier = nxt
        return sorted(orbit, key=sorted)

    def _label_classes(self, orbits: list[list[frozenset[int]]]
                       ) -> list[SubgroupClass]:
        """One class per sorted conjugation orbit, ordered by (|H|, sorted
        representative) with ids "order.k"; the orbits may come in any
        order, so the labels depend on the orbits alone."""
        classes: list[SubgroupClass] = []
        counts: dict[int, int] = {}
        for orbit in sorted(orbits, key=lambda o: (len(o[0]), sorted(o[0]))):
            rep = orbit[0]
            o = len(rep)
            counts[o] = counts.get(o, 0) + 1
            classes.append(SubgroupClass(
                id=f"{o}.{counts[o]}",
                index=len(classes),
                order=o,
                representative=rep,
                conjugates=tuple(orbit),
                is_cyclic=any(self._order_of[x] == o for x in rep),
                is_normal=len(orbit) == 1,
            ))
        return classes

    def subgroup_classes(self) -> list[SubgroupClass]:
        """All subgroups up to conjugacy, breadth-first closure enumeration.

        Each frontier subgroup H is extended by one prime-power-order seed g
        at a time, to <H, g>.  Since <H, hg> = <H, g> for every h in H, a
        seed in a right coset H·g' of an earlier seed g' gives nothing new
        and is skipped: one closure per right coset of H that meets the
        seeds.
        """
        if self._subgroup_classes is not None:
            return self._subgroup_classes
        seen: set[frozenset[int]] = set()
        orbits: list[list[frozenset[int]]] = []

        def admit(sub: frozenset[int]) -> bool:
            if sub in seen:
                return False
            orbit = self._subgroup_orbit(sub, self.generator_indices)
            orbits.append(orbit)
            seen.update(orbit)
            return True

        admit(frozenset({0}))
        # prime-power-order elements suffice as extension seeds
        seeds = [i for i in range(1, self.order)
                 if len(factor_bounded(self._order_of[i])) == 1]
        frontier: list[frozenset[int]] = []
        for i in seeds:
            sub = self.closure([i])
            if admit(sub):
                frontier.append(sub)
        while frontier:
            nxt = []
            for H in frontier:
                hgens = self.generating_indices(H)
                used = set(H)  # H and the right cosets H·g already closed
                for g in seeds:
                    if g in used:
                        continue
                    used.update(self._mul[h][g] for h in H)
                    K = self.closure(hgens + (g,))
                    if admit(K):
                        nxt.append(K)
            frontier = nxt
        classes = self._label_classes(orbits)
        self._subgroup_classes = classes
        self._subgroup_lookup = {H: c.index for c in classes
                                 for H in c.conjugates}
        self._subgroup_ids = {c.id: c for c in classes}
        return classes

    def classify_subgroup(self, sub: frozenset[int]) -> SubgroupClass:
        classes = self.subgroup_classes()
        return classes[self._subgroup_lookup[frozenset(sub)]]

    def subgroup_class_by_id(self, cid: str) -> SubgroupClass:
        self.subgroup_classes()
        got = self._subgroup_ids.get(cid)
        if got is None:
            raise KeyError(f"no subgroup class {cid!r}")
        return got

    def sub_lattice(self, dsub: frozenset[int]) -> list[SubgroupClass]:
        """Subgroup classes of the subgroup dsub, under dsub-conjugation only.

        Element indices stay in the ambient group's index space.
        """
        dsub = frozenset(dsub)
        got = self._sub_lattices.get(dsub)
        if got is None:
            self.subgroup_classes()
            dgens = self.generating_indices(dsub)
            seen: set[frozenset[int]] = set()
            orbits = []
            for H in self._subgroup_lookup:
                if H <= dsub and H not in seen:
                    orbit = self._subgroup_orbit(H, dgens)
                    orbits.append(orbit)
                    seen.update(orbit)
            got = self._sub_lattices[dsub] = self._label_classes(orbits)
        return got

    def classify_in_lattice(self, dsub: frozenset[int],
                            sub: frozenset[int]) -> SubgroupClass:
        for c in self.sub_lattice(dsub):
            if sub in c.conjugates:
                return c
        raise KeyError("subgroup not inside the given lattice")

    # -- double cosets -------------------------------------------------------

    def double_cosets(self, hsub: frozenset[int], dsub: frozenset[int]
                      ) -> DoubleCosets:
        """Representatives x of H\\G/D, ascending, each with its local
        subgroup D ∩ x^{-1} H x, of order |H ∩ x D x^{-1}|.

        For D the decomposition group of a place, the double coset of x is
        one place of the fixed field of H above it, and the local subgroup
        is the decomposition group there.  This is the only walk over H\\G/D:
        callers read the local subgroup and never conjugate H themselves.
        The result is memoised per (H, D) and shared between callers, so it
        is a tuple and must not be mutated.
        """
        key = (frozenset(hsub), frozenset(dsub))
        got = self._double_cosets.get(key)
        if got is None:
            got = self._double_cosets[key] = self._double_coset_walk(*key)
        return got

    def _double_coset_walk(self, hsub: frozenset[int], dsub: frozenset[int]
                           ) -> DoubleCosets:
        hgens = self.generating_indices(hsub)
        dgens = self.generating_indices(dsub)
        seen = [False] * self.order
        out = []
        for x in range(self.order):
            if seen[x]:
                continue
            orbit = {x}
            frontier = [x]
            while frontier:
                nxt = []
                for y in frontier:
                    for h in hgens:
                        z = self._mul[h][y]
                        if z not in orbit:
                            orbit.add(z)
                            nxt.append(z)
                    row = self._mul[y]
                    for d in dgens:
                        z = row[d]
                        if z not in orbit:
                            orbit.add(z)
                            nxt.append(z)
                frontier = nxt
            for y in orbit:
                seen[y] = True
            xinv = self._inv[x]
            local = dsub.intersection(self._mul[self._mul[xinv][h]][x]
                                      for h in hsub)
            out.append((x, local))
        return tuple(out)

    # -- quotients -------------------------------------------------------------

    def quotient_group(self, nsub: frozenset[int]
                       ) -> tuple["PermGroup", tuple[int, ...]]:
        """Permutation action on cosets of a normal subgroup.

        Returns (Q, proj): proj maps each element index of this group to the
        element index of its image coset permutation in Q.
        """
        nsub = frozenset(nsub)
        if not self.is_normal_subgroup(nsub):
            raise ValueError("subgroup is not normal")
        cosets: list[frozenset[int]] = []
        coset_of = [-1] * self.order
        for x in range(self.order):
            if coset_of[x] >= 0:
                continue
            cs = frozenset(self._mul[x][n] for n in nsub)
            k = len(cosets)
            cosets.append(cs)
            for y in cs:
                coset_of[y] = k
        deg = len(cosets)

        def act(g: int) -> Perm:
            return tuple(coset_of[self._mul[g][min(cs)]] for cs in cosets)

        q = PermGroup(deg, [act(g) for g in self.generator_indices],
                      name=f"{self.name or 'G'}/N")
        return q, tuple(q.element_index(act(g)) for g in range(self.order))


# ---------------------------------------------------------------------------
# Burnside-ring arithmetic.  Elements are dicts {subgroup class id: int},
# relative to G.subgroup_classes() or G.sub_lattice(D).


def burnside_add(a: dict[str, int], b: dict[str, int]) -> dict[str, int]:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


def burnside_res(G: PermGroup, theta: dict[str, int],
                 dsub: frozenset[int]) -> dict[str, int]:
    """Restriction to the subgroup dsub, expressed in G.sub_lattice(dsub) ids."""
    dsub = frozenset(dsub)
    out: dict[str, int] = {}
    for cid, coeff in theta.items():
        if not coeff:
            continue
        hsub = G.subgroup_class_by_id(cid).representative
        for _, local in G.double_cosets(hsub, dsub):
            key = G.classify_in_lattice(dsub, local).id
            out[key] = out.get(key, 0) + coeff
    return {k: v for k, v in out.items() if v}


def burnside_ind(G: PermGroup, dsub: frozenset[int],
                 theta: dict[str, int]) -> dict[str, int]:
    """Reclassify subgroup classes of dsub as subgroup classes of G."""
    dsub = frozenset(dsub)
    out: dict[str, int] = {}
    for cid, coeff in theta.items():
        if not coeff:
            continue
        rep = next(c.representative for c in G.sub_lattice(dsub) if c.id == cid)
        key = G.classify_subgroup(rep).id
        out[key] = out.get(key, 0) + coeff
    return {k: v for k, v in out.items() if v}


def burnside_project(G: PermGroup, theta: dict[str, int],
                     nsub: frozenset[int]) -> tuple["PermGroup", dict[str, int]]:
    """Push forward along G -> G/N, sending [H] to [HN/N]."""
    q, proj = G.quotient_group(nsub)
    out: dict[str, int] = {}
    for cid, coeff in theta.items():
        if not coeff:
            continue
        rep = G.subgroup_class_by_id(cid).representative
        image = frozenset(proj[h] for h in rep)
        key = q.classify_subgroup(image).id
        out[key] = out.get(key, 0) + coeff
    return q, {k: v for k, v in out.items() if v}


def subgroup_rep(G: PermGroup, h) -> frozenset[int]:
    """Element set of a subgroup given as frozenset, SubgroupClass, or id."""
    if isinstance(h, SubgroupClass):
        return h.representative
    if isinstance(h, str):
        return G.subgroup_class_by_id(h).representative
    return frozenset(h)


def subgroup_as_group(G: PermGroup,
                      dsub: frozenset[int]) -> tuple[PermGroup, dict[int, int]]:
    """Copy a subgroup into a standalone PermGroup via its regular action.

    Returns (S, to_sub) where to_sub maps each element index of G lying in
    dsub to the index of the corresponding element of S; the map is an
    isomorphism onto S.
    """
    dsub = frozenset(dsub)
    if G.closure(dsub) != dsub:
        raise ValueError("not a subgroup")
    elems = sorted(dsub)
    pos = {g: i for i, g in enumerate(elems)}

    def act(g: int) -> Perm:
        return tuple(pos[G.mul(g, x)] for x in elems)

    gens = G.generating_indices(dsub)
    sub = PermGroup(len(elems), [act(g) for g in gens],
                    name=f"{G.name or 'G'}|{len(elems)}")
    to_sub = {g: sub.element_index(act(g)) for g in elems}
    return sub, to_sub


# ---------------------------------------------------------------------------
# Constructors


def cyclic_group(n: int, name: str | None = None) -> PermGroup:
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return PermGroup(1, [], name or "C1")
    rot = tuple((i + 1) % n for i in range(n))
    return PermGroup(n, [rot], name or f"C{n}")


def dihedral_group(n: int, name: str | None = None) -> PermGroup:
    """Dihedral group of order 2n acting on n points."""
    if n < 3:
        raise ValueError("need n >= 3")
    rot = tuple((i + 1) % n for i in range(n))
    flip = tuple((-i) % n for i in range(n))
    return PermGroup(n, [rot, flip], name or f"D{n}")


def quaternion_group(name: str | None = None) -> PermGroup:
    """Q8 in its left regular action on the eight unit quaternions."""
    basis = {"1": 0, "i": 1, "j": 2, "k": 3}
    table = {
        ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"),
        ("1", "k"): (1, "k"),
        ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"),
        ("i", "k"): (-1, "j"),
        ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"),
        ("j", "k"): (1, "i"),
        ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"),
        ("k", "k"): (-1, "1"),
    }
    units = [(s, b) for b in basis for s in (1, -1)]
    idx = {u: i for i, u in enumerate(units)}

    def mult(u, v):
        s, b = table[(u[1], v[1])]
        return (u[0] * v[0] * s, b)

    def left(u):
        return tuple(idx[mult(u, v)] for v in units)

    return PermGroup(8, [left((1, "i")), left((1, "j"))], name or "Q8")


def alternating4_group(name: str | None = None) -> PermGroup:
    return PermGroup(4, [perm_from_cycles("(1 2 3)", 4),
                         perm_from_cycles("(1 2)(3 4)", 4)], name or "A4")


def metacyclic_generators(n: int, m: int, q: int) -> tuple[Perm, Perm]:
    """The generators (sigma, phi) of C_n ⋊ C_m on n + m points.

    sigma rotates the first n points; phi acts on them by x -> x^q and
    rotates the last m.  Requires gcd(q, n) = 1 and q^m ≡ 1 (mod n).
    """
    if n < 1 or m < 1:
        raise ValueError("n, m must be positive")
    q %= n
    if math.gcd(q, n) != 1 or pow(q, m, n) != 1 % n:
        raise ValueError(f"action x -> x^{q} is not an order-dividing-{m} "
                         f"automorphism of C_{n}")
    deg = n + m
    sigma = tuple((i + 1) % n for i in range(n)) + tuple(range(n, deg))
    phi = tuple((q * i) % n for i in range(n)) + tuple(
        n + ((i - n + 1) % m) for i in range(n, deg))
    return sigma, phi


def metacyclic_group(n: int, m: int, q: int, name: str | None = None) -> PermGroup:
    """C_n ⋊ C_m with the C_m generator acting by x -> x^q on C_n.

    The generators are those of :func:`metacyclic_generators`; the group
    has order n*m and acts on n + m points.
    """
    return PermGroup(n + m, list(metacyclic_generators(n, m, q)),
                     name or f"C{n}:C{m}")


def group_from_cycles(degree: int, gen_strings: list[str],
                      name: str | None = None) -> PermGroup:
    return PermGroup(degree, [perm_from_cycles(s, degree) for s in gen_strings],
                     name=name)
