"""The places that the appendix sweeps validate, shared by the tests that
check local data at them."""

import functools

from krel import harness
from krel.harness import MetacyclicSpec, appendix_tamagawa_check

# every spec of order at most 32 that the appendix's 2D sweep takes
DIHEDRAL_SPECS = [MetacyclicSpec(e, k, -1) for e in (3, 4, 6)
                  for k in range(1, 4) if e << k <= 32]


@functools.cache
def appendix_places(case, spec):
    """The places that one appendix sweep validates, in order."""
    places = []
    real = harness._whole_group_place

    def recording(*args):
        places.append(real(*args))
        return places[-1]
    harness._whole_group_place = recording
    try:
        appendix_tamagawa_check(case, spec)
    finally:
        harness._whole_group_place = real
    return tuple(places)
