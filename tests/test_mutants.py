"""The mutation list of ``tests/mutants.py`` stays in step with the code:
each mutant's source text occurs exactly once in its module, its
replacement changes it, and its killing test is a test of the suite.
Running the mutants takes longer than tier-1 allows, so ``python
tests/mutants.py`` runs them when a mutated module changes."""

import ast

import pytest

from mutants import MUTANTS, ROOT, mutated


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: f"{m.module}: {m.reason}")
def test_mutant_source_occurs_exactly_once(mutant):
    assert mutant.source != mutant.replacement
    mutated(mutant)                    # raises unless the text occurs once


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: f"{m.module}: {m.reason}")
def test_mutant_names_a_test_of_the_suite(mutant):
    path, name = mutant.test.split("::")
    tree = ast.parse((ROOT / path).read_text())
    assert any(isinstance(node, ast.FunctionDef) and node.name == name
               for node in tree.body), mutant.test


def test_mutated_rejects_a_text_that_is_not_there_once():
    missing = MUTANTS[0]._replace(source="no such line\n")
    with pytest.raises(ValueError, match="occurs 0 times"):
        mutated(missing)
