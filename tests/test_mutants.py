"""tools/mutants.py plants each of its faults by replacing one exact text in
a copy of the program.  These checks keep the list from rotting silently as
the program changes; they do not run the mutants."""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_old_text_occurs_exactly_once(mutant):
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_each_named_test_exists(mutant):
    assert mutant.tests
    for node in mutant.tests:
        path, _, name = node.partition("::")
        assert re.search(rf"^def {re.escape(name)}\(", (ROOT / path).read_text(), re.M), node


def test_mutant_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(names) == len(set(names))
