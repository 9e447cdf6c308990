"""Source rules for the package: no `assert` statement (``python -O``
strips them, so an invariant checked by one is not checked at all) and no
random-number generator (results rest on exact arithmetic, not on sampling
or seeded retries)."""

import ast
import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "gcr").glob("*.py"))

RANDOM = re.compile(r"\bnp\.random\b|\bnumpy\.random\b|^\s*(import|from)\s+random\b",
                    re.MULTILINE)


def test_sources_found():
    assert any(path.name == "modrep.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_or_random(path):
    text = path.read_text()
    asserts = [node.lineno for node in ast.walk(ast.parse(text))
               if isinstance(node, ast.Assert)]
    assert not asserts, f"{path.name}: assert statements at lines {asserts}"
    rngs = [text.count("\n", 0, m.start()) + 1 for m in RANDOM.finditer(text)]
    assert not rngs, f"{path.name}: random-number generator at lines {rngs}"
