"""The mutant ledger still applies to the tree: every substitution finds its
text exactly once, and every test named to kill a mutant is still collected."""

import os
import subprocess
import sys

import pytest

from mutant_ledger import EQUIVALENT, MUTANTS

TESTS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TESTS)
SOURCE = os.path.join(ROOT, "src", "cpzsim")
ENTRIES = MUTANTS + EQUIVALENT


def test_mutant_ids_are_unique_and_each_entry_is_killed_or_argued():
    assert len({entry["id"] for entry in ENTRIES}) == len(ENTRIES)
    assert all(mutant["killed_by"] for mutant in MUTANTS)
    assert all(entry["argument"] for entry in EQUIVALENT)


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry["id"] for entry in ENTRIES])
def test_each_old_text_occurs_exactly_once(entry):
    with open(os.path.join(SOURCE, entry["file"]), encoding="utf-8") as fh:
        source = fh.read()
    for old, new in entry["edits"]:
        assert old != new
        assert source.count(old) == 1, old


def test_each_killing_test_is_collected():
    killers = {test for mutant in MUTANTS for test in mutant["killed_by"]}
    files = sorted({test.split("::")[0] for test in killers})
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *files],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = set(proc.stdout.splitlines())
    assert sorted(killers - collected) == []
