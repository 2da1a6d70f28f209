"""Global assembly over a model: fudge products, root-number parities, the
main congruence check, and the norm relations test with its obstruction screen.

A model is a group together with the places of the base field that carry
interesting local data.  Good places contribute a factor 1 and a parity bit 0
everywhere, so only bad finite places and the archimedean places need to be
listed; archimedean places must be listed because their count enters the
global root number.

Each model keeps one record, filled on first use: the exponent u_tau per
rational irreducible tau, the fudge product C_v(H) per (bad finite place v,
subgroup class H), and the NRT obstructions.  The global quantities below
are reads of it (see :class:`CurveLocalModel`); the bits u_{chi,v} are
summed once per tau, so they are computed and not kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import isqrt

from .characters import ClassFunction, char_field_data, fs_indicator, \
    rational_irreducibles
from .curvelocal import Diagnostic, Good, PlaceDescriptor, fudge_C, \
    local_u_contribution
from .exactmath import fraction_product, is_norm_from_quadratic
from .groups import PermGroup
from .regconst import NeedsMatrixModel, reg_const_rational_irr
from .relations import find_norm_relation, is_k_relation


@dataclass(frozen=True)
class CurveLocalModel:
    """A group with place descriptors; the global side of the data.

    With rational_base=True one real place is appended, the usual setting of
    a curve over the rationals.  The model and its places are frozen, so
    the record it keeps of what depends on them, each entry computed on
    first use, cannot go stale: a changed place means a new model.

    - ``u_exponents``: {label: u_tau} over the rational irreducibles tau,
      summed from :meth:`root_bits` once per tau; shared, so each report
      takes a copy;
    - ``_fudge[(i, cid)]``: C_v(H) for the i-th place v and H in the
      subgroup class cid (:meth:`fudge_product`);
    - ``obstructions``: :func:`nrt_obstructions` of the model.
    """

    group: PermGroup
    places: tuple[PlaceDescriptor, ...]
    rational_base: bool = False
    _fudge: dict[tuple[int, str], Fraction] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "places", tuple(self.places) + (
            (PlaceDescriptor("oo", "real"),) if self.rational_base else ()))
        problems = [f"{p.name}: place group is not the model group"
                    for p in self.places
                    if p.is_finite() and p.group is not self.group]
        if problems:
            raise ValueError("invalid model: " + "; ".join(problems))

    def finite_places(self) -> list[PlaceDescriptor]:
        return [p for p in self.places if p.is_finite()]

    @cached_property
    def obstructions(self) -> tuple[Diagnostic, ...]:
        return tuple(nrt_obstructions(self))

    @cached_property
    def u_exponents(self) -> dict[str, int]:
        """u_tau of each rational irreducible tau, read at its constituent."""
        return {tau.label: global_root_sign(self, tau.constituent)
                for tau in rational_irreducibles(self.group)}

    def root_bits(self, chi: ClassFunction) -> tuple[int, ...]:
        """u_{chi,v} for each place v, all 0 unless chi is orthogonal."""
        orthogonal = fs_indicator(chi) == 1
        return tuple(local_u_contribution(p, chi) if orthogonal else 0
                     for p in self.places)

    def fudge_product(self, i: int, cid: str) -> Fraction:
        """C_v(H) for the i-th place v and H in the class cid; kept.  The
        places above v of the fixed field of H are indexed by H\\G/D_v, as
        :meth:`PermGroup.double_cosets` returns them with their local
        subgroups D_v ∩ x^-1 H x, and each contributes its fudge factor."""
        if (i, cid) not in self._fudge:
            p, G = self.places[i], self.group
            hrep = G.subgroup_class_by_id(cid).representative
            self._fudge[i, cid] = fraction_product(
                (fudge_C(p, local), 1) for _, local
                in G.double_cosets(hrep, p.dsub))
        return self._fudge[i, cid]


def global_C_product(model: CurveLocalModel, theta: dict[str, int]) -> Fraction:
    """Product over the relation of all local fudge factors: C_v(H) to the
    power theta_H for each bad finite place v and each H in the relation,
    read from the model's record (see :meth:`CurveLocalModel.fudge_product`).
    """
    return fraction_product(
        (model.fudge_product(i, cid), coeff)
        for i, p in enumerate(model.places)
        if p.is_finite() and not isinstance(p.reduction, Good)
        for cid, coeff in theta.items() if coeff)


def global_root_sign(model: CurveLocalModel, chi: ClassFunction) -> int:
    """The exponent u of the twisted root-number sign (-1)^u: the bits
    u_{chi,v} summed over all places, modulo 2.

    Only orthogonal characters acquire a sign; for non-self-dual or
    symplectic chi the exponent is 0 by definition.
    """
    if chi.group is not model.group:
        raise ValueError("chi is not a character of the model's group")
    return sum(model.root_bits(chi)) % 2


@dataclass(frozen=True)
class TheoremReport:
    lhs: Fraction
    rhs: Fraction
    congruent: bool
    u_exponents: dict[str, int]


def theorem_main_check(model: CurveLocalModel, theta: dict[str, int],
                       d: int) -> TheoremReport:
    """Congruence of the fudge product with the regulator-constant product.

    lhs is the global fudge product over theta; rhs multiplies the regulator
    constant of each rational irreducible raised to its root-number exponent.
    The two must agree up to a norm from Q(sqrt(d)).
    """
    G = model.group
    if not is_k_relation(G, theta, d):
        raise ValueError(f"theta is not a relation for d = {d}")
    lhs = global_C_product(model, theta)
    u_exponents = dict(model.u_exponents)
    rhs = fraction_product(
        (reg_const_rational_irr(G, theta, tau, d), 1)
        for tau in rational_irreducibles(G) if u_exponents[tau.label])
    return TheoremReport(lhs, rhs, is_norm_from_quadratic(lhs / rhs, d),
                         u_exponents)


def nrt_obstructions(model: CurveLocalModel) -> list[Diagnostic]:
    """Structural reasons the norm relations test cannot predict anything."""
    G = model.group
    out = []
    if G.order % 2 == 1:
        out.append(Diagnostic("odd-order", "the group has odd order"))
    if G.classify_subgroup(frozenset(range(G.order))).is_cyclic:
        out.append(Diagnostic("cyclic", "the group is cyclic"))
    finite = model.finite_places()
    ramified = [p for p in finite if len(p.isub) > 1]
    if all(isinstance(p.reduction, Good) for p in ramified):
        out.append(Diagnostic(
            "good-at-ramified",
            "the curve has good reduction at every ramified place"))
    bad = [p for p in finite if not isinstance(p.reduction, Good)]
    if all(G.classify_subgroup(p.dsub).is_cyclic or len(p.dsub) % 2 == 1
           for p in bad):
        out.append(Diagnostic(
            "local-decomposition",
            "every bad place has a cyclic or odd-order decomposition group"))
    return out


@dataclass
class NrtReport:
    """Outcome of the norm relations test for one irreducible.

    norm_verdicts maps each quadratic subfield d of the character field to
    whether the product is a norm from Q(sqrt(d)); square_ok is the rational
    square verdict, only consulted when m is even (it quantifies over all
    quadratic fields at once).  prediction is true exactly when some verdict
    fails.  Each constraint pairs the rational characters whose regulator
    constants are non-norms with the implied odd parity of their root-number
    exponents.  u_exponents holds u_tau for every rational irreducible tau,
    and parity_holds says, constraint by constraint, whether the sum of
    u_tau over its characters has the implied parity.
    """

    rho_label: str
    m: int
    theta: dict[str, int]
    product: Fraction
    norm_verdicts: dict[int, bool]
    square_ok: bool | None
    prediction: bool
    constraints: list[tuple[tuple[str, ...], int]]
    warnings: list[Diagnostic]
    u_exponents: dict[str, int]
    parity_holds: list[bool]


def _is_rational_square(x: Fraction) -> bool:
    """Whether x is the square of a rational, with no factoring."""
    return x > 0 and all(isqrt(n) ** 2 == n
                         for n in (x.numerator, x.denominator))


def nrt_run(model: CurveLocalModel, rho: ClassFunction) -> NrtReport:
    """Norm relations test: does the fudge product witness positive rank?"""
    G = model.group
    m, theta = find_norm_relation(G, rho)
    product = global_C_product(model, theta)
    norm_verdicts = {d: is_norm_from_quadratic(product, d)
                     for d in char_field_data(rho).quadratic_subfields}
    square_ok = _is_rational_square(product) if m % 2 == 0 else None
    warnings = list(model.obstructions)
    constraints: list[tuple[tuple[str, ...], int]] = []
    for d, ok in norm_verdicts.items():
        if ok:
            continue
        try:
            labels = tuple(
                tau.label for tau in rational_irreducibles(G)
                if not is_norm_from_quadratic(
                    reg_const_rational_irr(G, theta, tau, d), d))
        except NeedsMatrixModel as exc:
            warnings.append(Diagnostic(
                "needs-matrix-model",
                f"constraint for d = {d} dropped: {exc}"))
            continue
        constraints.append((labels, 1))
    prediction = not all(norm_verdicts.values()) or square_ok is False
    u = dict(model.u_exponents)
    return NrtReport(rho.label or "", m, theta, product, norm_verdicts,
                     square_ok, prediction, constraints, warnings, u,
                     [sum(u[t] for t in labels) % 2 == parity
                      for labels, parity in constraints])
