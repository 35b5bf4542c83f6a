"""The committed mutants stay applicable: each one's text matches its module
exactly once, the rule ``mutants.mutate`` enforces before a mutant runs,
and each names a test that exists.  No subprocess runs here, so a change
that rewrites mutated code fails the suite instead of leaving the mutant
stale until ``python tests/mutants.py`` is run."""

import re
import shutil

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_applies_once(tmp_path, mutant):
    module = mutants.ROOT / "src" / "swaplab" / mutant.module
    (tmp_path / "swaplab").mkdir()
    copy = tmp_path / "swaplab" / mutant.module
    shutil.copy(module, copy)
    mutants.mutate(tmp_path, mutant)
    assert copy.read_text() != module.read_text()


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_names_a_test_that_exists(mutant):
    path, *scopes = re.sub(r"\[.*\]$", "", mutant.node).split("::")
    text = (mutants.ROOT / path).read_text()
    for scope in scopes:
        kind = "class" if scope.startswith("Test") else "def"
        assert re.search(rf"^\s*{kind} {scope}\b", text, re.M), mutant.node
