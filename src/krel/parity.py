"""Global assembly over a model: fudge products, root-number parities, the
main congruence check, and the norm relations test with its obstruction screen.

A model is a group together with the places of the base field that carry
interesting local data.  Good places contribute a factor 1 and a parity bit 0
everywhere, so only bad finite places and the archimedean places need to be
listed; archimedean places must be listed because their count enters the
global root number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .characters import ClassFunction, char_field_data, fs_indicator, \
    rational_irreducibles
from .curvelocal import Diagnostic, Good, PlaceDescriptor, SplitMult, \
    fudge_C, local_u_contribution, validate_place
from .exactmath import is_norm_from_quadratic, squarefree_class
from .groups import PermGroup
from .regconst import NeedsMatrixModel, reg_const_rational_irr
from .relations import find_norm_relation, is_k_relation


@dataclass
class CurveLocalModel:
    """A group with validated place descriptors; the global side of the data.

    With rational_base=True one real place is appended, the usual setting of
    a curve over the rationals.
    """

    group: PermGroup
    places: list[PlaceDescriptor]
    label: str = ""
    rational_base: bool = False

    def __post_init__(self):
        self.places = list(self.places)
        if self.rational_base:
            self.places.append(PlaceDescriptor("oo", "real"))
        problems = []
        for p in self.places:
            if p.is_finite() and p.group is not self.group:
                problems.append(f"{p.name}: place group is not the model group")
                continue
            if not p.validated:
                problems.extend(f"{p.name}: {d}" for d in validate_place(p))
        if problems:
            raise ValueError("invalid model: " + "; ".join(problems))

    def finite_places(self) -> list[PlaceDescriptor]:
        return [p for p in self.places if p.is_finite()]


def _require_model(model: CurveLocalModel):
    for p in model.places:
        if not p.validated:
            raise ValueError(f"model contains unvalidated place {p.name!r}")


def global_C_product(model: CurveLocalModel, theta: dict[str, int]) -> Fraction:
    """Product over the relation of all local fudge factors.

    For each finite place and each subgroup H in the relation, the places of
    the fixed field above it are indexed by double cosets H\\G/D_v, and each
    one contributes the fudge factor of its local subgroup D_v ∩ x^-1 H x,
    as :meth:`PermGroup.double_cosets` returns it.
    """
    _require_model(model)
    G = model.group
    val = Fraction(1)
    for p in model.finite_places():
        if isinstance(p.reduction, Good):
            continue
        for cid, coeff in theta.items():
            if not coeff:
                continue
            hrep = G.subgroup_class_by_id(cid).representative
            for _, local in G.double_cosets(hrep, p.dsub):
                val *= fudge_C(p, local) ** coeff
    return val


@dataclass(frozen=True)
class GlobalRootSign:
    sign: int
    u: int


def global_root_sign(model: CurveLocalModel, chi: ClassFunction) -> GlobalRootSign:
    """Twisted root-number sign (-1)^u with u summed over all places.

    Only orthogonal characters acquire a sign; for non-self-dual or
    symplectic chi the exponent is 0 by definition.
    """
    if fs_indicator(chi) != 1:
        return GlobalRootSign(1, 0)
    _require_model(model)
    u = sum(local_u_contribution(p, chi) for p in model.places) % 2
    return GlobalRootSign(-1 if u else 1, u)


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
    rhs = Fraction(1)
    u_exponents: dict[str, int] = {}
    for tau in rational_irreducibles(G):
        u = global_root_sign(model, tau.constituent).u
        u_exponents[tau.label] = u
        if u:
            rhs *= reg_const_rational_irr(G, theta, tau, d).raw
    return TheoremReport(lhs, rhs, is_norm_from_quadratic(lhs / rhs, d),
                         u_exponents)


def quadratic_subfields(chi: ClassFunction) -> tuple[int, ...]:
    """Squarefree d with Q(sqrt(d)) inside the character field of chi."""
    return char_field_data(chi).quadratic_subfields


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
    exponents.
    """

    rho_label: str
    m: int
    theta: dict[str, int]
    product: Fraction
    norm_verdicts: dict[int, bool]
    square_ok: bool | None
    prediction: bool
    constraints: list[tuple[tuple[str, ...], int]] = field(default_factory=list)
    warnings: list[Diagnostic] = field(default_factory=list)


def nrt_run(model: CurveLocalModel, rho: ClassFunction) -> NrtReport:
    """Norm relations test: does the fudge product witness positive rank?"""
    G = model.group
    m, theta = find_norm_relation(G, rho)
    product = global_C_product(model, theta)
    norm_verdicts = {d: is_norm_from_quadratic(product, d)
                     for d in quadratic_subfields(rho)}
    square_ok = squarefree_class(product).is_trivial() if m % 2 == 0 else None
    warnings = nrt_obstructions(model)
    constraints: list[tuple[tuple[str, ...], int]] = []
    for d, ok in norm_verdicts.items():
        if ok:
            continue
        labels = []
        try:
            for tau in rational_irreducibles(G):
                if not reg_const_rational_irr(G, theta, tau, d).is_norm():
                    labels.append(tau.label)
        except NeedsMatrixModel as exc:
            warnings.append(Diagnostic(
                "needs-matrix-model",
                f"constraint for d = {d} dropped: {exc}"))
            continue
        constraints.append((tuple(labels), 1))
    prediction = any(not ok for ok in norm_verdicts.values()) \
        or square_ok is False
    return NrtReport(rho.label or "", m, theta, product, norm_verdicts,
                     square_ok, prediction, constraints, warnings)
