"""The local function of a place, H -> the product of psi(e, f) over the
double cosets H\\G/D, with (e, f) from :func:`krel.curvelocal.local_ef`."""

import math

from krel.curvelocal import local_ef
from krel.groups import subgroup_rep


def local_fn(G, dsub, isub, psi):
    """H (a frozenset, SubgroupClass or class id) -> the raw product of
    psi(e, f), one factor per double coset; no value is coerced."""
    return lambda h: math.prod(
        psi(*local_ef(dsub, isub, local))
        for _, local in G.double_cosets(subgroup_rep(G, h), dsub))
