"""Reference forms of the character Galois data, kept as test oracles.

These are the paths the engine used before its Galois data came from the
integer eigenvalue multisets of the table and from cached Galois means:
value keys (each value raised to level exp G, as a tuple of Fractions)
compared under every unit, orbit sums added in cyclotomic arithmetic, and
rational class sums taken from the value at each class.
"""

from krel.characters import (
    CharFieldData,
    RationalCharacter,
    _fundamental_discriminant,
    character_table,
)
from krel.exactmath import is_squarefree, kronecker_symbol


def value_keys(cf):
    e = cf.group.exponent()
    return [tuple(v.raised(e).coeffs) for v in cf.values]


def galois_orbit(chi):
    """The distinct sigma_k chi, k a unit mod exp G, in order of first k."""
    G = chi.group
    r = len(chi.values)
    base = value_keys(chi)
    seen = set()
    out = []
    for k in G.data.units:
        key = tuple(base[G.power_class(i, k)] for i in range(r))
        if key not in seen:
            seen.add(key)
            out.append(chi.galois(k))
    return out


def class_sums(G, values):
    """Sum of |c| * value(c) over each rational class, from the Galois mean
    of the value at its first class."""
    classes = G.conjugacy_classes()
    return [len(classes[o[0]]) * len(o) * values[o[0]].galois_mean()
            for o in G.data.rational_classes]


def fs_indicator(chi):
    G = chi.group
    squares = [chi.values[G.power_class(i, 2)] for i in range(len(chi.values))]
    val = sum(class_sums(G, squares)) / G.order
    assert val in (-1, 0, 1)
    return int(val)


def rational_multiplicities(v, weights):
    """<chi_j, v> for each irreducible chi_j, for a rational class function
    v, from the rows of :func:`class_weights` of its group."""
    G = v.group
    vals = [x.rational_value() for x in v.values]
    orbits = G.data.rational_classes
    assert all(vals[c] == vals[o[0]] for o in orbits for c in o)
    return [sum(vals[o[0]] * w for o, w in zip(orbits, row)) / G.order
            for row in weights]


def class_weights(G):
    out = []
    for chi in character_table(G).irreducibles:
        row = class_sums(G, chi.values)
        assert all(w.denominator == 1 for w in row)
        out.append([int(w) for w in row])
    return out


def char_field_data(chi):
    G = chi.group
    e = G.exponent()
    r = len(G.conjugacy_classes())
    keys = value_keys(chi)
    units = G.data.units
    stab = [k for k in units
            if all(keys[G.power_class(i, k)] == keys[i] for i in range(r))]
    subfields = []
    for d in range(-e, e + 1):
        if d in (0, 1) or not is_squarefree(d):
            continue
        disc = _fundamental_discriminant(d)
        if e % abs(disc) == 0 and all(kronecker_symbol(disc, k) == 1
                                      for k in stab):
            subfields.append(d)
    subfields.sort(key=lambda d: (abs(d), d))
    return CharFieldData(stabilizer=tuple(stab),
                         quadratic_subfields=tuple(subfields),
                         field_degree=len(units) // len(stab))


def orbit_sum(tau):
    """The sum of a rational irreducible's Galois orbit, added in
    cyclotomic arithmetic: the rational character tau itself."""
    irrs = character_table(tau.constituent.group).irreducibles
    total = irrs[tau.orbit_indices[0]]
    for m in tau.orbit_indices[1:]:
        total = total + irrs[m]
    return total


def rational_irreducibles(G):
    """Orbits by value keys."""
    table = character_table(G)
    r = len(table.class_sizes)
    keys = [value_keys(chi) for chi in table.irreducibles]
    key_to_idx = {tuple(k): i for i, k in enumerate(keys)}
    used = set()
    out = []
    for idx, chi in enumerate(table.irreducibles):
        if idx in used:
            continue
        members = sorted({
            key_to_idx[tuple(keys[idx][G.power_class(i, k)] for i in range(r))]
            for k in G.data.units})
        used.update(members)
        out.append(RationalCharacter(
            label=f"tau_{len(out) + 1}",
            constituent=chi,
            constituent_index=idx,
            orbit_indices=tuple(members),
            indicator=fs_indicator(chi),
        ))
    return out

