"""Every mutant of scripts/mutants.py names a text that occurs exactly once
in its file, so a stale mutant shows here and not only when the slow script
runs."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "mutants.py"
_spec = importlib.util.spec_from_file_location("mutants", SCRIPT)
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_every_mutant_text_occurs_once():
    listed = mutants.MUTANTS + mutants.EQUIVALENT
    stale = [(file, reason) for file, old, new, reason in listed
             if (ROOT / file).read_text().count(old) != 1 or new == old]
    assert stale == []
    assert len(listed) >= 53
