"""A frozen copy of the ``krel`` package, the benchmark's speed reference.

The other modules here are ``src/krel`` as it stood when the benchmark was
defined, unchanged.  ``speedref.py`` times a small call on this copy to
measure the host's speed.  Do not edit or update it: a change would move
every reported time.  Changes to ``krel`` belong in ``src/krel``.
"""

__version__ = "0.1.0"
