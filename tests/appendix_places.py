"""The places that the appendix sweeps validate, shared by the tests that
check local data at them."""

import functools

from krel import harness
from krel.harness import appendix_tamagawa_check


@functools.cache
def appendix_places(case, spec):
    """The places that one appendix sweep validates, in order."""
    places = []
    real = harness.validate_place

    def recording(p):
        places.append(p)
        return real(p)
    harness.validate_place = recording
    try:
        appendix_tamagawa_check(case, spec)
    finally:
        harness.validate_place = real
    return tuple(places)
